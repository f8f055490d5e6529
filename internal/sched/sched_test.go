package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
)

// unifiedInput wraps a graph for a unified machine at the given II.
func unifiedInput(g *ddg.Graph, width, ii int) Input {
	return Input{Graph: g, Machine: machine.NewUnifiedGP(width), II: ii}
}

// checkSchedule re-verifies dependences and (coarsely) resource counts;
// the full oracle lives in package verify, which cannot be imported
// here without a cycle, so this is the local variant for direct
// scheduler tests.
func checkSchedule(t *testing.T, in Input, s *Schedule) {
	t.Helper()
	lat := in.Machine.Latency
	for i, e := range in.Graph.Edges {
		need := s.CycleOf[e.From] + lat(in.Graph.Nodes[e.From].Kind) - in.II*e.Distance
		if s.CycleOf[e.To] < need {
			t.Errorf("edge %d violated: to@%d < %d", i, s.CycleOf[e.To], need)
		}
	}
	// Per-slot, per-cluster issue counts must respect FU capacity.
	type key struct{ cl, slot int }
	counts := map[key]int{}
	for n := 0; n < in.Graph.NumNodes(); n++ {
		if in.isCopy(n) {
			continue
		}
		slot := ((s.CycleOf[n] % in.II) + in.II) % in.II
		counts[key{in.clusterOf(n), slot}]++
	}
	for k, c := range counts {
		if width := in.Machine.Clusters[k.cl].Width(); c > width {
			t.Errorf("cluster %d slot %d issues %d ops, width %d", k.cl, k.slot, c, width)
		}
	}
}

func schedulers() map[string]func(Input) (*Schedule, bool) {
	return map[string]func(Input) (*Schedule, bool){
		"IMS": IMS,
		"SMS": SMS,
	}
}

func TestSchedulersOnChain(t *testing.T) {
	for name, run := range schedulers() {
		t.Run(name, func(t *testing.T) {
			g := ddg.NewGraph(3, 2)
			a := g.AddNode(ddg.OpLoad, "")
			b := g.AddNode(ddg.OpFMul, "")
			c := g.AddNode(ddg.OpStore, "")
			g.AddEdge(a, b, 0)
			g.AddEdge(b, c, 0)
			in := unifiedInput(g, 4, 1)
			s, ok := run(in)
			if !ok {
				t.Fatal("chain unschedulable at II=1")
			}
			checkSchedule(t, in, s)
			if s.CycleOf[b] < 2 || s.CycleOf[c] < 5 {
				t.Errorf("latencies not respected: %v", s.CycleOf)
			}
		})
	}
}

func TestSchedulersRejectIIBelowRecMII(t *testing.T) {
	for name, run := range schedulers() {
		t.Run(name, func(t *testing.T) {
			g := ddg.NewGraph(2, 2)
			a := g.AddNode(ddg.OpALU, "")
			b := g.AddNode(ddg.OpALU, "")
			g.AddEdge(a, b, 0)
			g.AddEdge(b, a, 1) // RecMII 2
			if _, ok := run(unifiedInput(g, 4, 1)); ok {
				t.Error("scheduled below RecMII")
			}
			if _, ok := run(unifiedInput(g, 4, 2)); !ok {
				t.Error("failed at RecMII")
			}
		})
	}
}

func TestSchedulersResourceLimited(t *testing.T) {
	for name, run := range schedulers() {
		t.Run(name, func(t *testing.T) {
			// 8 independent ops on a 4-wide machine at II=2: exactly full.
			g := ddg.NewGraph(8, 0)
			for i := 0; i < 8; i++ {
				g.AddNode(ddg.OpALU, "")
			}
			in := unifiedInput(g, 4, 2)
			s, ok := run(in)
			if !ok {
				t.Fatal("exact-fit schedule failed")
			}
			checkSchedule(t, in, s)
		})
	}
}

func TestSchedulersEmptyGraph(t *testing.T) {
	for name, run := range schedulers() {
		t.Run(name, func(t *testing.T) {
			g := ddg.NewGraph(0, 0)
			if _, ok := run(unifiedInput(g, 4, 1)); !ok {
				t.Error("empty graph should schedule")
			}
		})
	}
}

func TestStageCount(t *testing.T) {
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpFDiv, "") // latency 9
	b := g.AddNode(ddg.OpALU, "")
	g.AddEdge(a, b, 0)
	in := unifiedInput(g, 4, 1)
	s, ok := IMS(in)
	if !ok {
		t.Fatal("unschedulable")
	}
	if s.StageCount() < 10 {
		t.Errorf("StageCount = %d, want >= 10 (9-cycle latency at II=1)", s.StageCount())
	}
}

// TestSchedulersOnAssignedClusteredLoops drives both schedulers over
// assigned suite loops and re-checks all constraints, including copies.
func TestSchedulersOnAssignedClusteredLoops(t *testing.T) {
	machines := []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedFS(2, 2, 1),
		machine.NewGrid4(2),
	}
	for name, run := range schedulers() {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, mIdx uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				g := loopgen.Loop(rng)
				m := machines[int(mIdx)%len(machines)]
				base := mii.MII(g, m)
				for ii := base; ii < base+8; ii++ {
					res, ok := assign.Run(g, m, ii, assign.Options{Variant: assign.HeuristicIterative})
					if !ok {
						continue
					}
					in := Input{
						Graph:       res.Graph,
						Machine:     m,
						ClusterOf:   res.ClusterOf,
						CopyTargets: res.CopyTargets,
						II:          ii,
					}
					s, ok := run(in)
					if !ok {
						continue
					}
					checkSchedule(t, in, s)
					return !t.Failed()
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestIMSDisplacementConverges(t *testing.T) {
	// Dense dependent graph with tight resources exercises eviction.
	g := ddg.NewGraph(12, 20)
	for i := 0; i < 12; i++ {
		g.AddNode(ddg.OpALU, "")
		if i > 0 {
			g.AddEdge(i-1, i, 0)
		}
		if i > 1 {
			g.AddEdge(i-2, i, 0)
		}
	}
	in := unifiedInput(g, 4, 3)
	s, ok := IMS(in)
	if !ok {
		t.Fatal("IMS failed on a feasible dense chain")
	}
	checkSchedule(t, in, s)
}

func TestNormalizeShiftsByMultipleOfII(t *testing.T) {
	c := []int{-3, 0, 4}
	normalize(c, 3)
	if c[0] != 0 || c[1] != 3 || c[2] != 7 {
		t.Errorf("normalize = %v, want [0 3 7]", c)
	}
	d := []int{0, 2}
	normalize(d, 3)
	if d[0] != 0 || d[1] != 2 {
		t.Errorf("normalize changed non-negative cycles: %v", d)
	}
}

func TestValidateInputPanics(t *testing.T) {
	g := ddg.NewGraph(1, 0)
	g.AddNode(ddg.OpALU, "")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on II=0")
		}
	}()
	IMS(Input{Graph: g, Machine: machine.NewUnifiedGP(4), II: 0})
}
