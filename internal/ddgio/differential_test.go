package ddgio

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"clustersched/internal/loopgen"
)

// describe renders a parse outcome exactly: the error text, or every
// loop's name, nodes (kind and quoted name) and edges.
func describe(loops []NamedGraph, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	for _, l := range loops {
		fmt.Fprintf(&b, "loop %q\n", l.Name)
		for _, n := range l.Graph.Nodes {
			fmt.Fprintf(&b, "node %d %s %q\n", n.ID, n.Kind, n.Name)
		}
		for _, e := range l.Graph.Edges {
			fmt.Fprintf(&b, "edge %d %d %d\n", e.From, e.To, e.Distance)
		}
	}
	return b.String()
}

// checkAgainstScanner holds every entry point to the scanner oracle on
// text, validating and lax.
func checkAgainstScanner(t *testing.T, text string) {
	t.Helper()
	want := describe(scanRead(strings.NewReader(text), true))
	if got := describe(ReadString(text)); got != want {
		t.Fatalf("ReadString(%.60q):\n%s\nscanner oracle:\n%s", text, got, want)
	}
	if got := describe(Read(strings.NewReader(text))); got != want {
		t.Fatalf("Read(%.60q):\n%s\nscanner oracle:\n%s", text, got, want)
	}
	wantLax := describe(scanRead(strings.NewReader(text), false))
	if got := describe(ReadLax(strings.NewReader(text))); got != wantLax {
		t.Fatalf("ReadLax(%.60q):\n%s\nscanner oracle:\n%s", text, got, wantLax)
	}
}

// differentialSeeds are the texts both the differential test and the
// fuzz target start from: the format's corners the one-pass reader
// re-implements (white space beyond ASCII, CRLF, comments, name
// spacing, a missing final newline) and every error of the format.
var differentialSeeds = []string{
	sampleText,
	"",
	"\n\n",
	"loop x\nnode 0 alu\nend",
	"loop x\r\nnode 0 load a[i]\r\nend\r\n",
	"  loop\tx  \n\tnode  0   alu   two  spaced\tname \nend\n",
	"loop x\nnode 0 alu a b c\nnode 1 fadd\nedge 0 1 0\nedge 1 1 1\nend\n",
	"loop\u00a0x\nnode 0\u2003alu\u3000n\u0085m\nend\n",
	"loop x\nnode 0 alu \xff\xfe bad\u2028utf8\nend\n",
	"loop\nnode 0 alu\nend\nloop\nend\n",
	"# c\n  # indented comment\nloop x #not a comment\nnode 0 alu # nor this\nend\n",
	"loop x\nnode +0 alu\nedge +0 -0 +1\nend\n",
	"loop x\nnode 0 alu\nedge 0 0 99999999999999999999\nend\n",
	"loop x\nnode 0 alu\nedge 0 0 1 extra\nend\n",
	"loop x\nnode 0 alu\nedge 0 1\nend\n",
	"loop x\nnode 0 alu\nnode 1 alu\nedge 1 0 0\nedge 0 1 0\nend\n",
	"loop x\nnode zero alu\nend\n",
	"loop x\nnode 0 ALU\nend\n",
	"loop x\nnodes 0 alu\nend\n",
	"loop x\nendless\n",
	"node 0 alu\n",
	"edge 0 1 0\n",
	"end\n",
	"loop x\nnode 0 alu\n",
	"loop x\nloop y\n",
	"loop x\nnode 0 bogus\nend\n",
	"loop x\nnode 1 alu\nend\n",
	"loop x\nnode 0 alu\nedge 0 5 0\nend\n",
	"loop x\nnode 0 alu\nnode 1 alu\nedge 0 1 -1\nend\n",
	"loop x\nnode 0 alu\nnode 1 alu\nedge 0 one 0\nend\n",
	"loop x\nnode 0\nend\n",
	"loop x\nfrobnicate\nend\n",
	"loop x\nnode 0 alu\nedge 0 0 0\nend\n",
}

// TestParseMatchesScanner holds the one-pass reader to the scanner
// oracle on the seeds, on a slice of the paper's suite as Write renders
// it, and on a whole multi-loop dump.
func TestParseMatchesScanner(t *testing.T) {
	for _, text := range differentialSeeds {
		checkAgainstScanner(t, text)
	}
	suite := loopgen.Suite(loopgen.Options{Seed: 1})
	var all strings.Builder
	for i := 0; i < len(suite); i += 13 {
		var b strings.Builder
		if err := Write(&b, fmt.Sprintf("loop%d", i), suite[i]); err != nil {
			t.Fatal(err)
		}
		checkAgainstScanner(t, b.String())
		all.WriteString(b.String())
	}
	checkAgainstScanner(t, all.String())
}

// TestParseLineCap: a line of maxLine-1 bytes parses and one of
// maxLine bytes fails with bufio's token-too-long error, with or
// without its newline, as the scanner's 16 MiB token cap had it.
func TestParseLineCap(t *testing.T) {
	const head = "node 0 alu "
	for _, n := range []int{maxLine - 1, maxLine} {
		long := head + strings.Repeat("n", n-len(head))
		checkAgainstScanner(t, "loop x\n"+long+"\nend\n")
		checkAgainstScanner(t, "loop x\nend\n"+long)
	}
	_, err := ReadString("loop x\n" + strings.Repeat(" ", maxLine) + "\nend\n")
	if err == nil || !strings.Contains(err.Error(), "token too long") {
		t.Errorf("a line of maxLine bytes: %v, want token too long", err)
	}
}

// failingReader yields text and then fails with err.
func failingReader(text string, err error) io.Reader {
	return io.MultiReader(strings.NewReader(text), io.MultiReader(), errOnRead{err})
}

type errOnRead struct{ err error }

func (r errOnRead) Read([]byte) (int, error) { return 0, r.err }

// TestReadErrorAfterText: a stream that breaks is parsed up to the
// break, its last partial line included, before the read error is
// reported, as the scanner did.
func TestReadErrorAfterText(t *testing.T) {
	broken := errors.New("connection reset")
	for _, text := range []string{
		"loop x\nnode 0 alu\nend\n",
		"loop x\nnode 0 alu\nen",
		"loop x\nnode 0 bogus\n",
		"loop x\nnode 0 alu\nend\nnode 1",
		"",
	} {
		want := describe(scanRead(failingReader(text, broken), true))
		if got := describe(Read(failingReader(text, broken))); got != want {
			t.Errorf("Read(%q then an error) = %s, scanner oracle %s", text, got, want)
		}
	}
}

// FuzzParseMatchesScanner: on any text, the one-pass reader returns
// the scanner oracle's loops, names and error texts.
func FuzzParseMatchesScanner(f *testing.F) {
	for _, s := range differentialSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkAgainstScanner(t, text)
	})
}
