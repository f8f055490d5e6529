package regalloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
	"clustersched/internal/sched"
	"clustersched/internal/verify"
)

func schedule(t testing.TB, g *ddg.Graph, m *machine.Config) (sched.Input, *sched.Schedule) {
	t.Helper()
	base := mii.MII(g, m)
	for ii := base; ii < base+32; ii++ {
		res, ok := assign.Run(g, m, ii, assign.Options{Variant: assign.HeuristicIterative})
		if !ok {
			continue
		}
		in := sched.Input{
			Graph:       res.Graph,
			Machine:     m,
			ClusterOf:   res.ClusterOf,
			CopyTargets: res.CopyTargets,
			II:          ii,
		}
		if s, ok := sched.IMS(in); ok {
			return in, s
		}
	}
	t.Fatal("unschedulable fixture")
	return sched.Input{}, nil
}

func TestLifetimesSimpleChain(t *testing.T) {
	g := ddg.NewGraph(3, 2)
	a := g.AddNode(ddg.OpLoad, "")
	b := g.AddNode(ddg.OpALU, "")
	c := g.AddNode(ddg.OpStore, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 1}
	s := &sched.Schedule{II: 1, CycleOf: []int{0, 2, 3}}

	ls := Lifetimes(in, s)
	if len(ls) != 2 {
		t.Fatalf("got %d lifetimes, want 2 (store has none)", len(ls))
	}
	// a: available at 2, used at 2 -> [2, 3): len 1.
	if ls[0].Value != a || ls[0].Start != 2 || ls[0].Len != 1 {
		t.Errorf("lifetime of a = %+v", ls[0])
	}
	// b: available at 3, used at 3 -> len 1.
	if ls[1].Value != b || ls[1].Start != 3 || ls[1].Len != 1 {
		t.Errorf("lifetime of b = %+v", ls[1])
	}
}

func TestLifetimeSpansLoopCarriedUse(t *testing.T) {
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpStore, "")
	g.AddEdge(a, b, 2) // used two iterations later
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 3}
	s := &sched.Schedule{II: 3, CycleOf: []int{0, 1}}
	ls := Lifetimes(in, s)
	// def at 1, last use at 1 + 2*3 = 7 -> [1, 8): len 7.
	if ls[0].Len != 7 {
		t.Errorf("lifetime len = %d, want 7", ls[0].Len)
	}
	if MVEFactor(in, s) != 3 {
		t.Errorf("MVE factor = %d, want ceil(7/3)=3", MVEFactor(in, s))
	}
}

func TestMVEFactorOneForShortLifetimes(t *testing.T) {
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpStore, "")
	g.AddEdge(a, b, 0)
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 4}
	s := &sched.Schedule{II: 4, CycleOf: []int{0, 1}}
	if f := MVEFactor(in, s); f != 1 {
		t.Errorf("MVE factor = %d, want 1", f)
	}
}

func TestLowerBound(t *testing.T) {
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpStore, "")
	g.AddEdge(a, b, 2)
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 3}
	s := &sched.Schedule{II: 3, CycleOf: []int{0, 1}}
	total, perCluster := lowerBound(in, s)
	if total != 3 { // ceil(7/3)
		t.Errorf("lowerBound = %d, want 3", total)
	}
	if perCluster[0] != 3 {
		t.Errorf("perCluster = %v", perCluster)
	}
}

func TestAllocateMVEValidatesOnSuiteLoops(t *testing.T) {
	machines := []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedFS(4, 4, 2),
		machine.NewGrid4(2),
	}
	f := func(seed int64, mIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := loopgen.Loop(rng)
		m := machines[int(mIdx)%len(machines)]
		in, s := schedule(t, g, m)
		alloc := AllocateMVE(in, s)
		if err := alloc.Validate(in, s); err != nil {
			t.Logf("seed %d on %s: %v", seed, m.Name, err)
			return false
		}
		// Sanity: register count at least the per-cluster MaxLive-ish
		// lower bound and not absurdly high.
		lbTotal, _ := lowerBound(in, s)
		if alloc.TotalRegisters() < lbTotal {
			t.Logf("allocated %d < lower bound %d", alloc.TotalRegisters(), lbTotal)
			return false
		}
		live, _ := verify.MaxLive(in, s)
		if alloc.TotalRegisters() > 4*live+4*alloc.Factor+8 {
			t.Logf("allocated %d registers vs MaxLive %d: implausibly wasteful", alloc.TotalRegisters(), live)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAllocationSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	m := machine.NewBusedGP(2, 2, 1)
	for i := 0; i < 20; i++ {
		g := loopgen.Loop(rng)
		in, s := schedule(t, g, m)
		alloc := AllocateMVE(in, s)
		for _, b := range alloc.Bindings {
			if in.ClusterOf == nil {
				continue
			}
			if in.Graph.Nodes[b.Value].Kind == ddg.OpCopy {
				// A copy's registers live in its target clusters.
				found := false
				for _, target := range in.CopyTargets[b.Value] {
					if target == b.Cluster {
						found = true
					}
				}
				if !found {
					t.Fatalf("copy %d bound in cluster %d, not a target %v",
						b.Value, b.Cluster, in.CopyTargets[b.Value])
				}
				continue
			}
			if in.ClusterOf[b.Value] != b.Cluster {
				t.Fatalf("binding cluster %d != value cluster %d", b.Cluster, in.ClusterOf[b.Value])
			}
		}
	}
}

func TestArcsOverlap(t *testing.T) {
	cases := []struct {
		s1, l1, s2, l2, circle int
		want                   bool
	}{
		{0, 2, 1, 2, 8, true},  // plain overlap
		{0, 2, 2, 2, 8, false}, // adjacent
		{6, 4, 0, 2, 8, true},  // wraparound hits [0,2)
		{6, 2, 0, 2, 8, false}, // wraparound stops at 0
		{0, 8, 5, 1, 8, true},  // full-circle arc hits everything
		{3, 1, 3, 1, 8, true},  // identical
		{0, 1, 4, 1, 8, false}, // disjoint
		{7, 3, 1, 1, 8, true},  // wrap covers [7,0,1): hits [1,2)
		{7, 2, 1, 1, 8, false}, // wrap covers [7,0): misses [1,2)
	}
	for _, tc := range cases {
		if got := arcsOverlap(tc.s1, tc.l1, tc.s2, tc.l2, tc.circle); got != tc.want {
			t.Errorf("arcsOverlap(%d,%d, %d,%d, %d) = %v, want %v",
				tc.s1, tc.l1, tc.s2, tc.l2, tc.circle, got, tc.want)
		}
	}
}

func TestLongLifetimeGetsMultipleRegisters(t *testing.T) {
	// A value live for 7 cycles at II=3 needs MVE factor 3: its three
	// in-flight instances must hold three distinct registers.
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpStore, "")
	g.AddEdge(a, b, 2)
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 3}
	s := &sched.Schedule{II: 3, CycleOf: []int{0, 1}}
	alloc := AllocateMVE(in, s)
	if err := alloc.Validate(in, s); err != nil {
		t.Fatal(err)
	}
	if alloc.Factor != 3 {
		t.Fatalf("factor = %d, want 3", alloc.Factor)
	}
	regs := map[int]bool{}
	for _, bind := range alloc.Bindings {
		if bind.Value == a {
			regs[bind.Register] = true
		}
	}
	if len(regs) != 3 {
		t.Errorf("value a holds %d distinct registers, want 3", len(regs))
	}
}

func TestStoresAndBranchesGetNoRegisters(t *testing.T) {
	g := ddg.NewGraph(2, 0)
	g.AddNode(ddg.OpStore, "")
	g.AddNode(ddg.OpBranch, "")
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 1}
	s := &sched.Schedule{II: 1, CycleOf: []int{0, 0}}
	if ls := Lifetimes(in, s); len(ls) != 0 {
		t.Errorf("got %d lifetimes, want 0", len(ls))
	}
	alloc := AllocateMVE(in, s)
	if alloc.TotalRegisters() != 0 {
		t.Errorf("allocated %d registers for no values", alloc.TotalRegisters())
	}
}

// lowerBound returns Rau's averaged lower bound on register need:
// ceil(sum of lifetimes / II), machine-wide and per cluster. No
// allocation may use fewer registers.
func lowerBound(in sched.Input, s *sched.Schedule) (total int, perCluster []int) {
	perSum := make([]int, in.Machine.NumClusters())
	sum := 0
	for _, l := range Lifetimes(in, s) {
		sum += l.Len
		perSum[l.Cluster] += l.Len
	}
	perCluster = make([]int, len(perSum))
	for i, v := range perSum {
		perCluster[i] = (v + s.II - 1) / s.II
	}
	return (sum + s.II - 1) / s.II, perCluster
}
