package report

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"clustersched/internal/loopgen"
)

// paperGolden is the reproduction report of the paper's full suite
// exactly as `go run ./cmd/clusterbench -markdown` prints it. A change
// that moves the paper's numbers on purpose regenerates it with that
// command and updates EXPERIMENTS.md to match.
const paperGolden = "testdata/paper.golden.md"

// TestPaperGolden regenerates the full-suite report and requires it
// byte-for-byte equal to the golden, so no change moves a match%, ΔII
// or avg-copies cell of the paper reproduction silently.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper experiment over the full suite")
	}
	want, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Markdown(&got, loopgen.Suite(loopgen.Options{Seed: 1}), Options{}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("report differs from %s at line %d:\n got %s\nwant %s", paperGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("report has %d lines, %s has %d", len(gl), paperGolden, len(wl))
}

// TestExperimentsMatchGolden requires every "ours" match% cell of
// EXPERIMENTS.md's figure, Table 3 and grid tables to equal the
// golden report's row, so the document cannot drift from the code.
func TestExperimentsMatchGolden(t *testing.T) {
	golden, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string][][]string{}
	for title, body := range sections(string(golden)) {
		id, _, _ := strings.Cut(title, " ")
		reported[id] = tableRows(body)
	}
	documented := sections(string(doc))
	pins := []struct{ heading, id string }{
		{"Figure 12 ", "fig12"}, {"Figure 13 ", "fig13"}, {"Figure 14 ", "fig14"},
		{"Figure 15 ", "fig15"}, {"Figure 16 ", "fig16"}, {"Figure 17 ", "fig17"},
		{"Figure 18 ", "fig18"}, {"Figure 19 ", "fig19"},
		{"Table 3 ", "table3"}, {"Grid machine", "grid"},
	}
	for _, pin := range pins {
		var body string
		for title, b := range documented {
			if strings.HasPrefix(title, pin.heading) {
				body = b
			}
		}
		rows, want := tableRows(body), reported[pin.id]
		if len(want) == 0 {
			t.Fatalf("%s: no rows in %s", pin.id, paperGolden)
		}
		// Golden rows: label, paper%, match%, ΔII=0.., avg II, avg copies.
		var cells []string
		for _, r := range want {
			cells = append(cells, r[2])
		}
		if pin.id == "grid" {
			// The grid table adds "within one cycle": ΔII = 0 or 1.
			m, _ := strconv.ParseFloat(want[0][2], 64)
			d1, _ := strconv.ParseFloat(want[0][4], 64)
			cells = append(cells, fmt.Sprintf("%.1f", m+d1))
		}
		if len(rows) != len(cells) {
			t.Errorf("EXPERIMENTS.md %q: %d rows, golden %s has %d", pin.heading, len(rows), pin.id, len(cells))
			continue
		}
		for i, r := range rows {
			ours := strings.Trim(r[len(r)-1], "*% ")
			if ours != cells[i] {
				t.Errorf("EXPERIMENTS.md %q row %q: ours %s, golden %s", pin.heading, r[0], ours, cells[i])
			}
		}
	}
}

// sections splits a Markdown document at its "## " headings, keyed by
// heading text.
func sections(doc string) map[string]string {
	out := map[string]string{}
	for _, s := range strings.Split(doc, "\n## ")[1:] {
		title, body, _ := strings.Cut(s, "\n")
		out[title] = body
	}
	return out
}

// tableRows returns the trimmed cells of the first table's body rows
// in a section.
func tableRows(body string) [][]string {
	var rows [][]string
	header := true
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		if header || strings.HasPrefix(line, "|---") {
			header = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	return rows
}
