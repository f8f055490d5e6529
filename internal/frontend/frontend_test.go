package frontend_test

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/compile"
	"clustersched/internal/ddg"
	"clustersched/internal/frontend"
	"clustersched/internal/livermore"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
	"clustersched/internal/pipeline"
)

func compileOne(t *testing.T, src string) *ddg.Graph {
	t.Helper()
	loops, err := frontend.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(loops))
	}
	if err := loops[0].Graph.Validate(); err != nil {
		t.Fatalf("compiled graph invalid: %v", err)
	}
	return loops[0].Graph
}

func kindCount(g *ddg.Graph, k ddg.OpKind) int {
	return g.KindCounts()[k]
}

func TestCompileDotProduct(t *testing.T) {
	g := compileOne(t, `
loop dotprod {
    s = s + a[i] * b[i]
}`)
	// 2 loads, 1 fmul, 1 fadd, 1 branch.
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d, want 5\n%s", g.NumNodes(), g)
	}
	if kindCount(g, ddg.OpLoad) != 2 || kindCount(g, ddg.OpFMul) != 1 || kindCount(g, ddg.OpFAdd) != 1 {
		t.Errorf("wrong op mix:\n%s", g)
	}
	// The reduction is a self recurrence on the fadd.
	comps := g.NonTrivialSCCs()
	if len(comps) != 1 || len(comps[0].Nodes) != 1 || !comps[0].Self {
		t.Errorf("reduction recurrence missing: %+v\n%s", comps, g)
	}
	lat := machine.DefaultLatencies()
	if rec := mii.RecMII(g, func(k ddg.OpKind) int { return lat[k] }); rec != 1 {
		t.Errorf("RecMII = %d, want 1 (fadd latency)", rec)
	}
}

func TestCompileStencilMemoryRecurrence(t *testing.T) {
	g := compileOne(t, `
loop smooth {
    x[i] = (x[i-1] + in[i] + in[i+1]) / 3.0
}`)
	// The store x[i] feeds the load x[i-1] of the next iteration: a
	// recurrence THROUGH MEMORY with distance 1.
	found := false
	for _, e := range g.Edges {
		if g.Nodes[e.From].Kind == ddg.OpStore && g.Nodes[e.To].Kind == ddg.OpLoad && e.Distance == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing store->load RAW distance-1 edge:\n%s", g)
	}
	comps := g.NonTrivialSCCs()
	if len(comps) != 1 {
		t.Errorf("stencil should form one recurrence, got %d:\n%s", len(comps), g)
	}
}

func TestCompileWARDependence(t *testing.T) {
	g := compileOne(t, `
loop shift {
    t = x[i+1]
    x[i] = t * 2.0
}`)
	// Load x[i+1] (offset 1) then store x[i] (offset 0): iteration t+1
	// overwrites what iteration t read: WAR load->store distance 1.
	found := false
	for _, e := range g.Edges {
		if g.Nodes[e.From].Kind == ddg.OpLoad && g.Nodes[e.To].Kind == ddg.OpStore && e.Distance == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing load->store WAR distance-1 edge:\n%s", g)
	}
}

func TestCompileStoreToLoadForwarding(t *testing.T) {
	g := compileOne(t, `
loop fwd {
    x[i] = a[i] + 1.0
    y[i] = x[i] * 2.0
}`)
	// x[i] is read right after being written: the load is eliminated.
	if kindCount(g, ddg.OpLoad) != 1 {
		t.Errorf("load of x[i] should be forwarded; loads = %d\n%s", kindCount(g, ddg.OpLoad), g)
	}
	// The fmul must consume the fadd's value directly.
	found := false
	for _, e := range g.Edges {
		if g.Nodes[e.From].Kind == ddg.OpFAdd && g.Nodes[e.To].Kind == ddg.OpFMul && e.Distance == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("forwarded value edge missing:\n%s", g)
	}
}

func TestCompileCommonLoadElimination(t *testing.T) {
	g := compileOne(t, `
loop cse {
    s = a[i] * a[i] + a[i]
}`)
	if kindCount(g, ddg.OpLoad) != 1 {
		t.Errorf("a[i] should be loaded once, got %d loads:\n%s", kindCount(g, ddg.OpLoad), g)
	}
}

func TestCompileInvariantAndConstantFoldAway(t *testing.T) {
	g := compileOne(t, `
loop axpy {
    y[i] = alpha * x[i] + 3.0
}`)
	// alpha is loop-invariant and 3.0 constant: one load, fmul, fadd,
	// store, branch.
	if g.NumNodes() != 5 {
		t.Errorf("nodes = %d, want 5:\n%s", g.NumNodes(), g)
	}
	// The fmul has exactly one register input (x[i]'s load).
	for _, n := range g.Nodes {
		if n.Kind == ddg.OpFMul && len(g.Predecessors(n.ID)) != 1 {
			t.Errorf("fmul should have one in-loop input:\n%s", g)
		}
	}
}

func TestCompileScalarChainWithinIteration(t *testing.T) {
	g := compileOne(t, `
loop chain {
    t = a[i] + b[i]
    u = t * t
    c[i] = u
}`)
	// t and u are same-iteration scalars: distance-0 flow, no recurrence.
	if len(g.NonTrivialSCCs()) != 0 {
		t.Errorf("unexpected recurrence:\n%s", g)
	}
	if kindCount(g, ddg.OpFMul) != 1 || kindCount(g, ddg.OpFAdd) != 1 {
		t.Errorf("wrong op mix:\n%s", g)
	}
}

func TestCompileLinearRecurrence(t *testing.T) {
	g := compileOne(t, `
loop rec {
    v = v * c + d[i]
    out[i] = v
}`)
	comps := g.NonTrivialSCCs()
	if len(comps) != 1 {
		t.Fatalf("want one recurrence, got %d:\n%s", len(comps), g)
	}
	// v's cycle contains fmul and fadd: latency 4 over distance 1.
	lat := machine.DefaultLatencies()
	if rec := mii.RecMII(g, func(k ddg.OpKind) int { return lat[k] }); rec != 4 {
		t.Errorf("RecMII = %d, want 4 (fmul 3 + fadd 1):\n%s", rec, g)
	}
}

func TestCompileSqrt(t *testing.T) {
	g := compileOne(t, `
loop norm {
    r[i] = sqrt(x[i] * x[i] + y[i] * y[i])
}`)
	if kindCount(g, ddg.OpFSqrt) != 1 {
		t.Errorf("missing sqrt:\n%s", g)
	}
}

func TestCompileMultipleLoops(t *testing.T) {
	loops, err := frontend.Compile(`
loop one { a[i] = b[i] + 1.0 }
loop two { c[i] = d[i] * 2.0 }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 2 || loops[0].Name != "one" || loops[1].Name != "two" {
		t.Fatalf("loops = %+v", loops)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"empty body", "loop x { }", "empty body"},
		{"bad subscript var", "loop x { a[j] = 1.0 }", "loop index"},
		{"unknown func", "loop x { a[i] = foo(1.0) }", "unknown function"},
		{"missing brace", "loop x { a[i] = 1.0", "expected"},
		{"garbage", "loop x { a[i] = + }", "expected an expression"},
		{"stray char", "loop x { a[i] = 1.0 @ }", "unexpected character"},
		{"no loops", "# nothing\n", "no loops"},
		{"missing assign", "loop x { a[i] 1.0 }", "'='"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := frontend.Compile(tc.src)
			if err == nil {
				t.Fatal("compile accepted bad input")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCompiledLoopsScheduleEndToEnd feeds compiled kernels through the
// full clustered pipeline.
func TestCompiledLoopsScheduleEndToEnd(t *testing.T) {
	src := `
loop dotprod { s = s + a[i] * b[i] }
loop saxpy   { y[i] = y[i] + alpha * x[i] }
loop smooth  { x[i] = (x[i-1] + in[i] + in[i+1]) / 3.0 }
loop norm    { r[i] = sqrt(x[i] * x[i] + y[i] * y[i]) }
`
	loops, err := frontend.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewBusedGP(2, 2, 1)
	for _, l := range loops {
		out, err := pipeline.Run(l.Graph, m, pipeline.Options{
			Assign: assign.Options{Variant: assign.HeuristicIterative},
		})
		if err != nil {
			t.Errorf("%s: %v", l.Name, err)
			continue
		}
		if out.II < out.MII {
			t.Errorf("%s: II %d below MII %d", l.Name, out.II, out.MII)
		}
	}
}

func TestCompileSelect(t *testing.T) {
	// IF-converted conditional: out[i] = a[i] > 0 ? b[i] : c — modeled
	// with an explicit predicate value and a select intrinsic.
	g := compileOne(t, `
loop cond {
    p = a[i] - threshold
    out[i] = select(p, b[i], fallback)
}`)
	if kindCount(g, ddg.OpALU) != 1 {
		t.Fatalf("select should compile to one integer conditional move:\n%s", g)
	}
	// The select consumes the predicate and b[i]'s load (fallback is
	// invariant).
	for _, n := range g.Nodes {
		if n.Kind == ddg.OpALU {
			if got := len(g.Predecessors(n.ID)); got != 2 {
				t.Errorf("select has %d in-loop inputs, want 2:\n%s", got, g)
			}
		}
	}
}

func TestCompileSelectArityError(t *testing.T) {
	_, err := frontend.Compile(`loop x { a[i] = select(b[i], c[i]) }`)
	if err == nil || !strings.Contains(err.Error(), "','") {
		t.Errorf("short select accepted: %v", err)
	}
	_, err = frontend.Compile(`loop x { a[i] = sqrt(b[i], c[i]) }`)
	if err == nil {
		t.Error("sqrt with two args accepted")
	}
}

// TestCompileEdgeOrderIsDeterministic: memory-dependence edges come
// out in the same order on every compile. Cache keys hash edges in
// order, so a run-to-run order change makes identical requests miss.
// Several loops of this corpus access more than one array, where a
// map-ordered walk would reorder the edges.
func TestCompileEdgeOrderIsDeterministic(t *testing.T) {
	src := loopgen.SourceCorpus(compile.CorpusSeed, 96)
	first, err := frontend.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 50; run++ {
		loops, err := frontend.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range loops {
			if !reflect.DeepEqual(l.Graph.Edges, first[i].Graph.Edges) {
				t.Fatalf("compile %d: loop %s edges %v, first compile had %v", run, l.Name, l.Graph.Edges, first[i].Graph.Edges)
			}
		}
	}
}

// TestFrontendMatchesOracle holds Compile and ParseSyntax to the
// frontend they replaced on Livermore, on generated corpora of several
// seeds and sizes, on FuzzCompile's seeds and on every error the
// language reports.
func TestFrontendMatchesOracle(t *testing.T) {
	srcs := map[string]string{
		"livermore":        livermore.Source(),
		"livermore+corpus": livermore.Source() + compile.GeneratedSource(),
	}
	for _, seed := range []int64{1, 7, compile.CorpusSeed, 42} {
		for _, n := range []int{1, 24, 96} {
			srcs[fmt.Sprintf("corpus(%d, %d)", seed, n)] = loopgen.SourceCorpus(seed, n)
		}
	}
	for i, s := range append(frontend.CompileSeeds, frontend.OracleSeeds...) {
		srcs[fmt.Sprintf("fuzz seed %d", i)] = s
	}
	for i, s := range []string{
		"loop x { }", "loop x { a[j] = 1.0 }", "loop x { a[i] = foo(1.0) }",
		"loop x { a[i] = 1.0", "loop x { a[i] = + }", "loop x { a[i] = 1.0 @ }",
		"# nothing\n", "loop x { a[i] 1.0 }", "loop x { a[i] = select(b[i], c[i]) }",
		"loop x { a[i] = sqrt(b[i], c[i]) }", "loop x { a[i+1.5] = 1 }", "loop x { a[i] = 1.2.3 }",
		"loop x { a[i] = b[i]; }", "loop x\n{\n s = s + 1;;\n}", "loop x { a[i] = b[i] c[i] }",
		"loop x { a[i] = (b[i] }", "loop x y", "loop", "x = 1", "loop x { a[i] = \xff }",
		"loop x { a = b; b = a }", "loop x { t = s; s = t * 2; u = t }",
	} {
		srcs[fmt.Sprintf("edge case %d", i)] = s
	}
	for name, src := range srcs {
		if d := frontend.DiffOracle(src); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}

// TestBuildConcurrent parses on one goroutine and builds every loop
// on four others as soon as it is parsed (the way compile.Source
// does), and requires the graphs of frontend.Compile. Run under -race
// it checks that a Parsed loop only reads slab entries the parser no
// longer writes.
func TestBuildConcurrent(t *testing.T) {
	src := livermore.Source() + loopgen.SourceCorpus(compile.CorpusSeed, 96)
	want, err := frontend.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := frontend.NewStream(src)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	type item struct {
		i int
		p frontend.Parsed
	}
	parsed := make(chan item, workers)
	got := make([]frontend.Loop, s.Len())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range parsed {
				got[it.i], _ = it.p.Build()
			}
		}()
	}
	for i := 0; i < s.Len(); i++ {
		p, err := s.Next()
		if err != nil {
			t.Error(err)
			break
		}
		parsed <- item{i, p}
	}
	close(parsed)
	wg.Wait()
	if len(got) != len(want) {
		t.Fatalf("stream has %d loops, Compile %d", len(got), len(want))
	}
	for i, l := range got {
		if l.Graph == nil || l.Name != want[i].Name || l.Line != want[i].Line ||
			!reflect.DeepEqual(l.Graph.Nodes, want[i].Graph.Nodes) || !reflect.DeepEqual(l.Graph.Edges, want[i].Graph.Edges) {
			t.Fatalf("loop %d (%s) differs from the serial build", i, want[i].Name)
		}
	}
}

// TestParseDeepNestingBounded: a megabyte of nested parentheses, unary
// minus or call arguments gets the parser's nesting error at the line
// where the bound is crossed, with the goroutine stack capped far
// below what one frame per level would take.
func TestParseDeepNestingBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("lexes megabyte sources")
	}
	const n = 1 << 20
	defer debug.SetMaxStack(debug.SetMaxStack(4 << 20))
	for name, src := range map[string]string{
		"parens": "loop p {\n x = " + strings.Repeat("(", n) + "y" + strings.Repeat(")", n) + "\n}",
		"minus":  "loop m {\n x = " + strings.Repeat("-", n) + "y\n}",
		"calls":  "loop c {\n x = " + strings.Repeat("sqrt(", n) + "y" + strings.Repeat(")", n) + "\n}",
	} {
		want := fmt.Sprintf("frontend: line 2: expression nested more than %d levels deep", frontend.MaxNesting)
		if _, err := frontend.Compile(src); err == nil || err.Error() != want {
			t.Errorf("%s: Compile error %v, want %q", name, err, want)
		}
		if _, err := frontend.ParseSyntax(src); err == nil || err.Error() != want {
			t.Errorf("%s: ParseSyntax error %v, want %q", name, err, want)
		}
	}
	// Exactly at the bound the source still parses.
	ok := "loop ok { x = " + strings.Repeat("(", frontend.MaxNesting-1) + "y" + strings.Repeat(")", frontend.MaxNesting-1) + " }"
	if _, err := frontend.Compile(ok); err != nil {
		t.Errorf("%d levels: %v", frontend.MaxNesting, err)
	}
}

// TestCompileLongChain: a left-deep chain of additions, which nests no
// deeper than one level, compiles and syntax-parses with the goroutine
// stack capped: the graph build walks the expression slab with a
// value stack instead of recursing once per operator.
func TestCompileLongChain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 256k-node graph")
	}
	const n = 1 << 18
	src := "loop chain { s = a[i]" + strings.Repeat(" + a[i]", n) + " }"
	defer debug.SetMaxStack(debug.SetMaxStack(8 << 20))
	loops, err := frontend.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// One load, n adds and the branch.
	if got := loops[0].Graph.NumNodes(); got != n+2 {
		t.Errorf("%d nodes, want %d", got, n+2)
	}
	syn, err := frontend.ParseSyntax(src)
	if err != nil || len(syn[0].Stmts[0].Reads) != n+1 {
		t.Errorf("ParseSyntax: %v", err)
	}
}

// TestMemoryPairsBounded: the memory-dependence walk costs the
// loop's (store, access) pair count. A body of stores to one array,
// whose pairs are quadratic in its length, is rejected with a located
// error naming the bound before any edge is built; a body of loads
// alone has no pairs and compiles without memory edges.
func TestMemoryPairsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 40,000-statement body")
	}
	stores := "loop st {\n" + strings.Repeat("a[i] = x\n", 4000) + "}\n"
	_, err := frontend.Compile(stores)
	want := fmt.Sprintf("frontend: line 1: loop \"st\" has 16000000 store-access pairs within its arrays, "+
		"more than the %d memory-dependence analysis admits", frontend.MaxMemoryPairs)
	if err == nil || err.Error() != want {
		t.Errorf("4000 stores: err = %v, want %q", err, want)
	}

	var b strings.Builder
	b.WriteString("loop ld {\n")
	for k := 0; k < 40000; k++ {
		fmt.Fprintf(&b, "s = s + a[i+%d]\n", k)
	}
	b.WriteString("}\n")
	loops, err := frontend.Compile(b.String())
	if err != nil {
		t.Fatal(err)
	}
	g := loops[0].Graph
	for _, e := range g.Edges {
		if g.Nodes[e.From].Kind == ddg.OpLoad && g.Nodes[e.To].Kind == ddg.OpLoad {
			t.Fatalf("loads-only body has a memory edge %+v", e)
		}
	}
}

// TestBuildAllocs gates Parsed.Build's allocations over Livermore and
// the corpus: the graph (header, node and edge slices, node arena),
// one string holding every node name, one int32 slab of ID-indexed
// tables, the access list, the graph check's search slab, and at most
// one regrowth of the edge slice for memory dependences.
func TestBuildAllocs(t *testing.T) {
	s, err := frontend.NewStream(livermore.Source() + loopgen.SourceCorpus(compile.CorpusSeed, 96))
	if err != nil {
		t.Fatal(err)
	}
	parsed := make([]frontend.Parsed, s.Len())
	for i := range parsed {
		if parsed[i], err = s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	const perLoop = 9
	a := testing.AllocsPerRun(10, func() {
		for i := range parsed {
			if _, err := parsed[i].Build(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if a > float64(perLoop*len(parsed)) {
		t.Errorf("building %d loops allocates %.0f times, want <= %d per loop", len(parsed), a, perLoop)
	}
}
