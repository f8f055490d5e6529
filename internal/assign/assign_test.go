package assign

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
)

// figure6 builds the paper's introductory example graph.
func figure6() *ddg.Graph {
	g := ddg.NewGraph(6, 6)
	a := g.AddNode(ddg.OpALU, "A")
	b := g.AddNode(ddg.OpALU, "B")
	c := g.AddNode(ddg.OpLoad, "C")
	d := g.AddNode(ddg.OpALU, "D")
	e := g.AddNode(ddg.OpALU, "E")
	f := g.AddNode(ddg.OpALU, "F")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	g.AddEdge(c, d, 0)
	g.AddEdge(d, b, 1)
	g.AddEdge(d, e, 0)
	g.AddEdge(e, f, 0)
	return g
}

// introMachine is the Section 3 target: two single-unit clusters, two
// buses, one port per side.
func introMachine() *machine.Config {
	return &machine.Config{
		Name:    "intro",
		Network: machine.Broadcast,
		Buses:   2,
		Clusters: []machine.Cluster{
			machine.GPCluster(1, 1, 1),
			machine.GPCluster(1, 1, 1),
		},
		Latencies: machine.DefaultLatencies(),
	}
}

func TestPaperExampleKeepsSCCTogether(t *testing.T) {
	g := figure6()
	m := introMachine()
	res, ok := Run(g, m, 4, Options{Variant: HeuristicIterative})
	if !ok {
		t.Fatal("assignment failed at II=4 (the paper succeeds)")
	}
	b, c, d := res.ClusterOf[1], res.ClusterOf[2], res.ClusterOf[3]
	if b != c || c != d {
		t.Errorf("SCC {B,C,D} split: clusters %d,%d,%d", b, c, d)
	}
	// Splitting off A, E, F requires at most 2 copies (A's value into
	// the SCC cluster is only needed if A is remote; D's value must
	// reach E/F's cluster).
	if res.Copies > 2 {
		t.Errorf("copies = %d, want <= 2", res.Copies)
	}
}

func TestUnifiedMachineTrivialAssignment(t *testing.T) {
	g := figure6()
	m := machine.NewUnifiedGP(8)
	res, ok := Run(g, m, 1, Options{})
	if !ok {
		t.Fatal("unified assignment failed")
	}
	if res.Copies != 0 {
		t.Errorf("unified machine produced %d copies", res.Copies)
	}
	for n, cl := range res.ClusterOf {
		if cl != 0 {
			t.Errorf("node %d on cluster %d, want 0", n, cl)
		}
	}
}

func TestUnifiedMachineFailsBelowResMII(t *testing.T) {
	g := ddg.NewGraph(9, 0)
	for i := 0; i < 9; i++ {
		g.AddNode(ddg.OpALU, "")
	}
	m := machine.NewUnifiedGP(4)
	if _, ok := Run(g, m, 2, Options{}); ok {
		t.Error("9 ops on 4 units at II=2 (capacity 8) should fail")
	}
	if _, ok := Run(g, m, 3, Options{}); !ok {
		t.Error("9 ops on 4 units at II=3 (capacity 12) should fit")
	}
}

func TestBroadcastSharesOneCopyAcrossTargets(t *testing.T) {
	// One producer with consumers pinned (by capacity) onto three other
	// clusters must broadcast once, not thrice: 4 single-unit clusters
	// at II=1 hold one op each.
	g := ddg.NewGraph(4, 3)
	p := g.AddNode(ddg.OpALU, "p")
	for i := 0; i < 3; i++ {
		c := g.AddNode(ddg.OpALU, "")
		g.AddEdge(p, c, 0)
	}
	m := &machine.Config{
		Name:    "4x1",
		Network: machine.Broadcast,
		Buses:   1,
		Clusters: []machine.Cluster{
			machine.GPCluster(1, 1, 1), machine.GPCluster(1, 1, 1),
			machine.GPCluster(1, 1, 1), machine.GPCluster(1, 1, 1),
		},
		Latencies: machine.DefaultLatencies(),
	}
	res, ok := Run(g, m, 1, Options{Variant: HeuristicIterative})
	if !ok {
		t.Fatal("assignment failed")
	}
	if res.Copies != 1 {
		t.Fatalf("copies = %d, want 1 broadcast copy", res.Copies)
	}
	copyID := res.NumOriginal
	if got := len(res.CopyTargets[copyID]); got != 3 {
		t.Errorf("copy has %d targets, want 3", got)
	}
	for _, target := range res.CopyTargets[copyID] {
		if target == res.ClusterOf[copyID] {
			t.Error("copy targets its own cluster")
		}
	}
}

func TestGridChainsCopiesThroughNeighbours(t *testing.T) {
	// Grid of 3-unit clusters at II=1: each cluster holds one int op.
	// Four dependent ALU ops force a producer's value across the grid;
	// any value reaching a diagonal cluster needs two chained copies.
	g := ddg.NewGraph(5, 4)
	p := g.AddNode(ddg.OpALU, "p")
	for i := 0; i < 3; i++ {
		c := g.AddNode(ddg.OpALU, "")
		g.AddEdge(p, c, 0)
	}
	m := machine.NewGrid4(2)
	res, ok := Run(g, m, 1, Options{Variant: HeuristicIterative})
	if !ok {
		t.Fatal("assignment failed on the grid")
	}
	// Every copy must be between adjacent clusters.
	for n := res.NumOriginal; n < res.Graph.NumNodes(); n++ {
		src := res.ClusterOf[n]
		for _, target := range res.CopyTargets[n] {
			if m.LinkBetween(src, target) < 0 {
				t.Errorf("copy %d goes %d -> %d without a link", n, src, target)
			}
		}
		if len(res.CopyTargets[n]) != 1 {
			t.Errorf("point-to-point copy %d has %d targets", n, len(res.CopyTargets[n]))
		}
	}
	// The producer's consumers sit on three other clusters, one of them
	// diagonal: at least 3 copies (2 direct + chain) are needed.
	if res.Copies < 3 {
		t.Errorf("copies = %d, want >= 3 (chained forwarding)", res.Copies)
	}
}

func TestFailsWhenCopiesImpossible(t *testing.T) {
	// Five chained ops over two 1-unit clusters at II=3: capacity needs
	// a split, but the machine has no ports at all, so any split is
	// unassignable and the run must fail rather than loop.
	g := ddg.NewGraph(5, 4)
	for i := 0; i < 5; i++ {
		g.AddNode(ddg.OpALU, "")
		if i > 0 {
			g.AddEdge(i-1, i, 0)
		}
	}
	m := &machine.Config{
		Name:    "portless",
		Network: machine.Broadcast,
		Buses:   1,
		Clusters: []machine.Cluster{
			machine.GPCluster(1, 0, 0),
			machine.GPCluster(1, 0, 0),
		},
		Latencies: machine.DefaultLatencies(),
	}
	if _, ok := Run(g, m, 3, Options{Variant: HeuristicIterative}); ok {
		t.Error("assignment succeeded although no copy can ever be placed")
	}
	// With II=5 everything fits one cluster: must succeed with 0 copies.
	res, ok := Run(g, m, 5, Options{Variant: HeuristicIterative})
	if !ok || res.Copies != 0 {
		t.Errorf("II=5 single-cluster assignment: ok=%v copies=%d", ok, res.Copies)
	}
}

func TestVariantFlags(t *testing.T) {
	if Simple.fullSelection() || Simple.iterative() {
		t.Error("Simple must be neither full nor iterative")
	}
	if !SimpleIterative.iterative() || SimpleIterative.fullSelection() {
		t.Error("SimpleIterative flags wrong")
	}
	if !Heuristic.fullSelection() || Heuristic.iterative() {
		t.Error("Heuristic flags wrong")
	}
	if !HeuristicIterative.fullSelection() || !HeuristicIterative.iterative() {
		t.Error("HeuristicIterative flags wrong")
	}
	for _, v := range []Variant{Simple, SimpleIterative, Heuristic, HeuristicIterative} {
		if v.String() == "" || v.String() == "Variant(?)" {
			t.Errorf("variant %d has no name", int(v))
		}
	}
}

func TestHeuristicDominatesSimpleOnSuite(t *testing.T) {
	// The Figure 12/13 ordering: the full iterative heuristic must
	// match MII at least as often as the simple variant over a sample.
	loops := loopgen.Suite(loopgen.Options{Seed: 3, Count: 120})
	m := machine.NewBusedGP(2, 2, 1)
	okAt := func(v Variant) int {
		n := 0
		for _, g := range loops {
			ii := mii.MII(g, m)
			if _, ok := Run(g, m, ii, Options{Variant: v}); ok {
				n++
			}
		}
		return n
	}
	simple := okAt(Simple)
	heuristic := okAt(Heuristic)
	full := okAt(HeuristicIterative)
	if heuristic < simple {
		t.Errorf("Heuristic (%d) worse than Simple (%d)", heuristic, simple)
	}
	if full < heuristic {
		t.Errorf("HeuristicIterative (%d) worse than Heuristic (%d)", full, heuristic)
	}
	if full <= simple {
		t.Errorf("full algorithm (%d) should clearly beat Simple (%d)", full, simple)
	}
}

// TestResultStructuralInvariants is the core property test: for random
// suite loops on several machines, any successful assignment must be
// structurally sound — annotated graph valid, clusters in range, copy
// routing cluster-local, original edge semantics preserved.
func TestResultStructuralInvariants(t *testing.T) {
	machines := []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedGP(4, 4, 2),
		machine.NewBusedFS(2, 2, 1),
		machine.NewGrid4(2),
	}
	f := func(seed int64, mIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := loopgen.Loop(rng)
		m := machines[int(mIdx)%len(machines)]
		ii := mii.MII(g, m)
		res, ok := Run(g, m, ii, Options{Variant: HeuristicIterative})
		if !ok {
			res, ok = Run(g, m, ii+4, Options{Variant: HeuristicIterative})
			if !ok {
				return true // legitimately hard; nothing to check
			}
		}
		return checkResult(t, g, m, res)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func checkResult(t *testing.T, g *ddg.Graph, m *machine.Config, res *Result) bool {
	t.Helper()
	if err := res.Graph.Validate(); err != nil {
		t.Logf("annotated graph invalid: %v", err)
		return false
	}
	if res.NumOriginal != g.NumNodes() {
		t.Logf("NumOriginal = %d, want %d", res.NumOriginal, g.NumNodes())
		return false
	}
	if res.Graph.NumNodes() != g.NumNodes()+res.Copies {
		t.Logf("node count %d != original %d + copies %d", res.Graph.NumNodes(), g.NumNodes(), res.Copies)
		return false
	}
	for n := 0; n < res.Graph.NumNodes(); n++ {
		cl := res.ClusterOf[n]
		if cl < 0 || cl >= m.NumClusters() {
			t.Logf("node %d cluster %d out of range", n, cl)
			return false
		}
		isCopy := res.Graph.Nodes[n].Kind == ddg.OpCopy
		if isCopy != (n >= res.NumOriginal) {
			t.Logf("node %d copy classification mismatch", n)
			return false
		}
		if isCopy {
			if len(res.CopyTargets[n]) == 0 {
				t.Logf("copy %d has no targets", n)
				return false
			}
			for _, target := range res.CopyTargets[n] {
				if target == cl {
					t.Logf("copy %d targets its own cluster", n)
					return false
				}
				if m.Network == machine.PointToPoint && m.LinkBetween(cl, target) < 0 {
					t.Logf("copy %d crosses non-adjacent clusters %d->%d", n, cl, target)
					return false
				}
			}
		}
	}
	// Every consumer reads cluster-local values.
	for _, e := range res.Graph.Edges {
		prodCl, consCl := res.ClusterOf[e.From], res.ClusterOf[e.To]
		if prodCl == consCl {
			continue
		}
		if res.Graph.Nodes[e.From].Kind != ddg.OpCopy {
			t.Logf("edge n%d->n%d crosses clusters %d->%d without a copy", e.From, e.To, prodCl, consCl)
			return false
		}
		found := false
		for _, target := range res.CopyTargets[e.From] {
			if target == consCl {
				found = true
				break
			}
		}
		if !found {
			t.Logf("copy %d feeds cluster %d it does not target", e.From, consCl)
			return false
		}
	}
	// Original dependence structure preserved: for each original edge
	// (u, v, d) there must be a path u ->* v in the annotated graph
	// whose distances sum to d, with only copies in between.
	for _, e := range g.Edges {
		if !pathPreserved(res, e) {
			t.Logf("original edge n%d->n%d (dist %d) not preserved", e.From, e.To, e.Distance)
			return false
		}
	}
	return true
}

// pathPreserved checks an original dependence survives, possibly
// rerouted through copy nodes, with total distance preserved.
func pathPreserved(res *Result, orig ddg.Edge) bool {
	type state struct {
		node, dist int
	}
	stack := []state{{orig.From, 0}}
	seen := map[state]bool{}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[s] || s.dist > orig.Distance {
			continue
		}
		seen[s] = true
		for _, e := range res.Graph.OutEdges(s.node) {
			nd := s.dist + e.Distance
			if e.To == orig.To && nd == orig.Distance {
				return true
			}
			if res.Graph.Nodes[e.To].Kind == ddg.OpCopy {
				stack = append(stack, state{e.To, nd})
			}
		}
	}
	return false
}

func TestBudgetExhaustionTerminates(t *testing.T) {
	// A hostile case: tight machine, tiny budget. The run must return
	// (either way) rather than loop forever.
	loops := loopgen.Suite(loopgen.Options{Seed: 11, Count: 40})
	m := machine.NewBusedGP(4, 1, 1)
	for _, g := range loops {
		ii := mii.MII(g, m)
		Run(g, m, ii, Options{Variant: HeuristicIterative, BudgetPerNode: 1})
	}
}

func TestRunPanicsOnBadII(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on II=0")
		}
	}()
	Run(figure6(), introMachine(), 0, Options{})
}

func TestDeterminism(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 5, Count: 30})
	m := machine.NewBusedGP(2, 2, 1)
	for _, g := range loops {
		ii := mii.MII(g, m)
		r1, ok1 := Run(g, m, ii, Options{Variant: HeuristicIterative})
		r2, ok2 := Run(g, m, ii, Options{Variant: HeuristicIterative})
		if ok1 != ok2 {
			t.Fatal("non-deterministic success")
		}
		if !ok1 {
			continue
		}
		for n := range r1.ClusterOf {
			if r1.ClusterOf[n] != r2.ClusterOf[n] {
				t.Fatalf("non-deterministic cluster for node %d", n)
			}
		}
	}
}

func TestNaiveOrderingStillProducesValidResults(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 19, Count: 50})
	m := machine.NewBusedGP(2, 2, 1)
	for i, g := range loops {
		ii := mii.MII(g, m)
		res, ok := Run(g, m, ii+2, Options{Variant: HeuristicIterative, NaiveOrdering: true})
		if !ok {
			continue
		}
		if !checkResult(t, g, m, res) {
			t.Fatalf("loop %d: naive-ordering result structurally invalid", i)
		}
	}
}

func TestEvictOldestStillProducesValidResults(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 23, Count: 50})
	m := machine.NewBusedGP(4, 4, 2)
	for i, g := range loops {
		ii := mii.MII(g, m)
		res, ok := Run(g, m, ii, Options{Variant: HeuristicIterative, EvictOldest: true})
		if !ok {
			continue
		}
		if !checkResult(t, g, m, res) {
			t.Fatalf("loop %d: evict-oldest result structurally invalid", i)
		}
	}
}

func TestDisableIncomingPredictionStillValid(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 29, Count: 50})
	m := machine.NewBusedGP(4, 4, 2)
	okWith, okWithout := 0, 0
	for _, g := range loops {
		ii := mii.MII(g, m)
		if res, ok := Run(g, m, ii, Options{Variant: HeuristicIterative}); ok {
			okWith++
			if !checkResult(t, g, m, res) {
				t.Fatal("structurally invalid")
			}
		}
		if res, ok := Run(g, m, ii, Options{Variant: HeuristicIterative, DisableIncomingPrediction: true}); ok {
			okWithout++
			if !checkResult(t, g, m, res) {
				t.Fatal("structurally invalid")
			}
		}
	}
	if okWith < okWithout {
		t.Errorf("incoming prediction should not hurt: with=%d without=%d", okWith, okWithout)
	}
}
