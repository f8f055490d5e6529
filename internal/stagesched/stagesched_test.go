package stagesched

import (
	"math/rand"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
	"clustersched/internal/sched"
	"clustersched/internal/verify"
)

// schedule runs the full pipeline by hand so the tests control the
// machine and can post-process the schedule.
func schedule(t *testing.T, g *ddg.Graph, m *machine.Config) (sched.Input, *sched.Schedule) {
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

func TestOptimizePullsProducerTowardUse(t *testing.T) {
	// a (load) is scheduled greedily at cycle 0 by IMS; its only use is
	// far away behind an fdiv chain. Stage scheduling should move the
	// load later by whole IIs, shortening its value lifetime.
	g := ddg.NewGraph(4, 3)
	a := g.AddNode(ddg.OpLoad, "early")
	b := g.AddNode(ddg.OpFDiv, "")
	c := g.AddNode(ddg.OpFDiv, "")
	d := g.AddNode(ddg.OpALU, "")
	g.AddEdge(b, c, 0)
	g.AddEdge(c, d, 0)
	g.AddEdge(a, d, 0) // a's value waits ~18 cycles if a stays at 0
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 1}
	s, ok := sched.IMS(in)
	if !ok {
		t.Fatal("unschedulable")
	}
	before, _ := verify.MaxLive(in, s)
	moved := Optimize(in, s)
	after, _ := verify.MaxLive(in, s)
	if err := verify.Schedule(in, s); err != nil {
		t.Fatalf("optimized schedule invalid: %v", err)
	}
	if moved == 0 {
		t.Error("expected the load to move toward its use")
	}
	if after > before {
		t.Errorf("MaxLive rose from %d to %d", before, after)
	}
	if s.CycleOf[a]+m.Latency(ddg.OpLoad) < s.CycleOf[d]-1 {
		t.Errorf("load still far from its use: load@%d use@%d", s.CycleOf[a], s.CycleOf[d])
	}
}

func TestOptimizeKeepsSchedulesValid(t *testing.T) {
	machines := []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedFS(4, 4, 2),
		machine.NewGrid4(2),
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		g := loopgen.Loop(rng)
		m := machines[i%len(machines)]
		in, s := schedule(t, g, m)
		ii := s.II
		slots := modSlots(s)
		Optimize(in, s)
		if err := verify.Schedule(in, s); err != nil {
			t.Fatalf("loop %d on %s: invalid after stage scheduling: %v", i, m.Name, err)
		}
		if s.II != ii {
			t.Fatal("stage scheduling changed II")
		}
		for v, slot := range modSlots(s) {
			if slot != slots[v] {
				t.Fatalf("loop %d: node %d changed modulo slot %d -> %d", i, v, slots[v], slot)
			}
		}
	}
}

func modSlots(s *sched.Schedule) []int {
	out := make([]int, len(s.CycleOf))
	for i, c := range s.CycleOf {
		out[i] = ((c % s.II) + s.II) % s.II
	}
	return out
}

func TestOptimizeNeverIncreasesTotalLifetime(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := machine.NewBusedGP(2, 2, 1)
	for i := 0; i < 40; i++ {
		g := loopgen.Loop(rng)
		in, s := schedule(t, g, m)
		before := totalLifetime(in, s)
		Optimize(in, s)
		after := totalLifetime(in, s)
		if after > before {
			t.Errorf("loop %d: total lifetime rose %d -> %d", i, before, after)
		}
	}
}

func totalLifetime(in sched.Input, s *sched.Schedule) int {
	total := 0
	g := in.Graph
	lat := in.Machine.Latency
	for v := 0; v < g.NumNodes(); v++ {
		def := s.CycleOf[v] + lat(g.Nodes[v].Kind)
		last := def
		for _, e := range g.OutEdges(v) {
			if use := s.CycleOf[e.To] + s.II*e.Distance; use > last {
				last = use
			}
		}
		total += last - def
	}
	return total
}

func TestOptimizeIdempotentAtFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := machine.NewBusedGP(2, 2, 1)
	g := loopgen.Loop(rng)
	in, s := schedule(t, g, m)
	Optimize(in, s)
	if moved := Optimize(in, s); moved != 0 {
		t.Errorf("second Optimize moved %d ops; expected a fixpoint", moved)
	}
}

func TestOptimizeOnTightRecurrence(t *testing.T) {
	// Everything inside one recurrence has zero whole-II slack; nothing
	// may move.
	g := ddg.NewGraph(3, 3)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpALU, "")
	c := g.AddNode(ddg.OpALU, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	g.AddEdge(c, a, 1)
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 3}
	s, ok := sched.IMS(in)
	if !ok {
		t.Fatal("unschedulable")
	}
	cycles := append([]int(nil), s.CycleOf...)
	Optimize(in, s)
	for v := range cycles {
		if s.CycleOf[v] != cycles[v] {
			t.Errorf("node %d moved %d -> %d inside a tight recurrence", v, cycles[v], s.CycleOf[v])
		}
	}
}
