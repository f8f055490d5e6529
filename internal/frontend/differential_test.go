package frontend

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// diffOracle runs Compile and ParseSyntax and their oracles on src and
// describes the first difference, or returns "". Loop names and lines,
// node IDs, kinds and names, edge order (which cache keys hash), the
// syntax view and every error message must match exactly. The two
// allowed differences are the bounds the oracle lacks: it recursed
// without limit, so past maxNesting levels only the slab parser
// rejects, and it tested every access pair, so past maxMemoryPairs
// only Compile rejects.
func diffOracle(src string) string {
	gs, gerr := ParseSyntax(src)
	ws, werr := oracleParseSyntax(src)
	if d := diffErr("ParseSyntax", gerr, werr, src); d != "" {
		return d
	}
	if gerr == nil && !reflect.DeepEqual(gs, ws) {
		return fmt.Sprintf("ParseSyntax:\n got %+v\nwant %+v", gs, ws)
	}
	got, gerr := Compile(src)
	want, werr := oracleCompile(src)
	if d := diffErr("Compile", gerr, werr, src); d != "" || gerr != nil {
		return d
	}
	if len(got) != len(want) {
		return fmt.Sprintf("Compile: %d loops, oracle %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Line != w.Line {
			return fmt.Sprintf("loop %d: %s at line %d, oracle %s at line %d", i, g.Name, g.Line, w.Name, w.Line)
		}
		if d := diffGraph(g, w); d != "" {
			return fmt.Sprintf("loop %s: %s", g.Name, d)
		}
	}
	return ""
}

func diffErr(what string, got, want error, src string) string {
	switch {
	case got != nil && strings.Contains(got.Error(), "levels deep") &&
		strings.Count(src, "(")+strings.Count(src, "-") >= maxNesting:
		return ""
	case got != nil && want == nil && strings.Contains(got.Error(), "memory-dependence analysis admits"):
		return ""
	case (got == nil) != (want == nil):
		return fmt.Sprintf("%s: error %v, oracle %v", what, got, want)
	case got != nil && got.Error() != want.Error():
		return fmt.Sprintf("%s: error %q, oracle %q", what, got, want)
	}
	return ""
}

func diffGraph(got, want Loop) string {
	g, w := got.Graph, want.Graph
	if len(g.Nodes) != len(w.Nodes) {
		return fmt.Sprintf("%d nodes, oracle %d", len(g.Nodes), len(w.Nodes))
	}
	for i := range g.Nodes {
		if *g.Nodes[i] != *w.Nodes[i] {
			return fmt.Sprintf("node %d is %+v, oracle %+v", i, *g.Nodes[i], *w.Nodes[i])
		}
	}
	if !slices.Equal(g.Edges, w.Edges) {
		return fmt.Sprintf("edges %v, oracle %v", g.Edges, w.Edges)
	}
	return ""
}

// oracleSeeds are inputs beyond FuzzCompile's seeds that reach the
// frontend's corners: calls nested in calls, scalar aliases carried
// around the body, store offsets, extreme subscripts, bad numbers and
// non-ASCII letters.
var oracleSeeds = []string{
	"loop c { a[i] = select(b[i] - t, sqrt(c[i] * -d[i+1]), (e[i-2])) }",
	"loop k { s = t + a[i]; t = s * 2; a[i] = a[i+1] - s; b[i-1] = a[i] }",
	"loop z { x[i] = 1.5; y[i] = x[i] / x[i-3]; x[i+2] = y[i] }",
	"loop m { t = u; u = v; v = t + 1 }\nloop m { q = sqrt(q) }",
	"loop o { a[i+9223372036854775807] = a[i-9223372036854775808] }",
	"loop e { a[i] = 1..2 }",
	"loop u { \xc3\xa9 = \xaa + 1 }",
	"loop p { a[i] = ((((b[i]))) }",
}

// FuzzFrontendOracle holds the slab frontend to the oracle on
// arbitrary source.
func FuzzFrontendOracle(f *testing.F) {
	for _, s := range compileSeeds {
		f.Add(s)
	}
	for _, s := range oracleSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := diffOracle(src); d != "" {
			t.Fatalf("%s\nsource: %q", d, src)
		}
	})
}
