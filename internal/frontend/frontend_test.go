package frontend_test

import (
	"reflect"
	"strings"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/compile"
	"clustersched/internal/ddg"
	"clustersched/internal/frontend"
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
