package ddgio

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
)

const sampleText = `
# a dot product
loop dotproduct
node 0 load a[i]
node 1 load b[i]
node 2 fmul
node 3 fadd s
edge 0 2 0
edge 1 2 0
edge 2 3 0
edge 3 3 1
end
loop second
node 0 alu
node 1 store
edge 0 1 0
end
`

func TestReadSample(t *testing.T) {
	loops, err := Read(strings.NewReader(sampleText))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(loops))
	}
	dp := loops[0]
	if dp.Name != "dotproduct" || dp.Graph.NumNodes() != 4 || dp.Graph.NumEdges() != 4 {
		t.Errorf("dotproduct parsed wrong: %s %d/%d", dp.Name, dp.Graph.NumNodes(), dp.Graph.NumEdges())
	}
	if dp.Graph.Nodes[0].Kind != ddg.OpLoad || dp.Graph.Nodes[0].Name != "a[i]" {
		t.Errorf("node 0 = %v %q", dp.Graph.Nodes[0].Kind, dp.Graph.Nodes[0].Name)
	}
	if dp.Graph.Edges[3].Distance != 1 {
		t.Error("recurrence edge distance lost")
	}
	if loops[1].Name != "second" {
		t.Errorf("second loop name = %q", loops[1].Name)
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 50; i++ {
		g := loopgen.Loop(rng)
		var buf bytes.Buffer
		if err := Write(&buf, "x", g); err != nil {
			t.Fatalf("Write: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read back: %v\n%s", err, buf.String())
		}
		if len(back) != 1 {
			t.Fatalf("round trip returned %d loops", len(back))
		}
		if got, want := back[0].Graph.String(), g.String(); got != want {
			t.Fatalf("round trip changed the graph:\n--- got\n%s--- want\n%s", got, want)
		}
	}
}

func TestWriteAllRoundTrip(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 4, Count: 10})
	var buf bytes.Buffer
	if err := WriteAll(&buf, loops); err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(back) != 10 {
		t.Fatalf("got %d loops, want 10", len(back))
	}
	if back[3].Name != "loop3" {
		t.Errorf("loop 3 named %q", back[3].Name)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"node outside loop", "node 0 alu\n", "outside loop"},
		{"edge outside loop", "edge 0 1 0\n", "outside loop"},
		{"end outside loop", "end\n", "outside loop"},
		{"unclosed loop", "loop x\nnode 0 alu\n", "not closed"},
		{"nested loop", "loop x\nloop y\n", "not closed"},
		{"bad kind", "loop x\nnode 0 bogus\nend\n", "unknown kind"},
		{"out of order ids", "loop x\nnode 1 alu\nend\n", "out of order"},
		{"edge to missing node", "loop x\nnode 0 alu\nedge 0 5 0\nend\n", "undeclared"},
		{"negative distance", "loop x\nnode 0 alu\nnode 1 alu\nedge 0 1 -1\nend\n", "negative"},
		{"bad integer", "loop x\nnode 0 alu\nnode 1 alu\nedge 0 one 0\nend\n", "bad integer"},
		{"short node", "loop x\nnode 0\nend\n", "needs id and kind"},
		{"short edge", "loop x\nnode 0 alu\nedge 0 0\nend\n", "needs from"},
		{"unknown directive", "loop x\nfrobnicate\nend\n", "unknown directive"},
		{"zero-dist cycle rejected", "loop x\nnode 0 alu\nedge 0 0 0\nend\n", "invalid loop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.text))
			if err == nil {
				t.Fatal("Read accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestReadEmptyStream(t *testing.T) {
	loops, err := Read(strings.NewReader("\n# nothing here\n"))
	if err != nil || len(loops) != 0 {
		t.Errorf("empty stream: %v, %v", loops, err)
	}
}

func TestNodeNameWithSpaces(t *testing.T) {
	text := "loop x\nnode 0 load the first element\nend\n"
	loops, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got := loops[0].Graph.Nodes[0].Name; got != "the first element" {
		t.Errorf("name = %q", got)
	}
}

// TestReadAllocatesInProportion pins the parse path's memory: reading
// one loop of the paper's suite (seed 1) allocates on the order of the
// loop: its text once, the graph presized, and no line buffer or
// per-line fields (a mean of about 1.8 KiB on the reference host).
func TestReadAllocatesInProportion(t *testing.T) {
	suite := loopgen.Suite(loopgen.Options{Seed: 1})
	texts := make([]string, len(suite))
	for i, g := range suite {
		var b strings.Builder
		if err := Write(&b, "loop", g); err != nil {
			t.Fatal(err)
		}
		texts[i] = b.String()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, text := range texts {
		if _, err := Read(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	mean := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(texts))
	t.Logf("mean %.0f bytes allocated per Read over %d loops", mean, len(texts))
	if mean > 2<<10 {
		t.Errorf("Read allocates %.0f bytes per suite loop, want <= 2 KiB", mean)
	}
}

// TestPresizeIsBoundedByText: loops closed by an indented "end" and
// followed by more node lines must each presize for their own lines
// only, so the whole parse allocates in proportion to the text.
func TestPresizeIsBoundedByText(t *testing.T) {
	for _, unit := range []string{
		"loop x\nnode 0 alu\n end\n",
		"loop x\nnode 0 alu\n\tend\n",
		"loop x\n# end\nnode 0 alu\nend\n",
	} {
		text := strings.Repeat(unit, 500)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		loops, err := ReadLax(strings.NewReader(text))
		runtime.ReadMemStats(&after)
		if err != nil || len(loops) != 500 {
			t.Fatalf("%q x 500: %d loops, %v", unit, len(loops), err)
		}
		if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(text)); per > 16 {
			t.Errorf("%q x 500: %.1f bytes allocated per byte of text, want <= 16", unit, per)
		}
	}
}

// BenchmarkReadSuiteLoop parses one loop of the paper's suite per
// iteration, cycling through the suite.
func BenchmarkReadSuiteLoop(b *testing.B) {
	suite := loopgen.Suite(loopgen.Options{Seed: 1})
	texts := make([]string, len(suite))
	for i, g := range suite {
		var sb strings.Builder
		if err := Write(&sb, "loop", g); err != nil {
			b.Fatal(err)
		}
		texts[i] = sb.String()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(strings.NewReader(texts[i%len(texts)])); err != nil {
			b.Fatal(err)
		}
	}
}
