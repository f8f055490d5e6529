package sim

import (
	"math/rand"
	"strings"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
	"clustersched/internal/regalloc"
	"clustersched/internal/sched"
	"clustersched/internal/stagesched"
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

func TestSimulateDotProduct(t *testing.T) {
	g := ddg.NewGraph(4, 4)
	a := g.AddNode(ddg.OpLoad, "a")
	b := g.AddNode(ddg.OpLoad, "b")
	mul := g.AddNode(ddg.OpFMul, "")
	acc := g.AddNode(ddg.OpFAdd, "s")
	g.AddEdge(a, mul, 0)
	g.AddEdge(b, mul, 0)
	g.AddEdge(mul, acc, 0)
	g.AddEdge(acc, acc, 1)
	m := machine.NewBusedGP(2, 2, 1)
	in, s := schedule(t, g, m)
	alloc := regalloc.AllocateMVE(in, s)
	if err := Run(in, s, alloc, 12); err != nil {
		t.Fatalf("simulation: %v", err)
	}
}

// TestSimulateSuiteLoops is the end-to-end functional oracle over the
// suite and every machine family, including stage-scheduled kernels.
func TestSimulateSuiteLoops(t *testing.T) {
	machines := []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedGP(4, 4, 2),
		machine.NewBusedFS(2, 2, 1),
		machine.NewGrid4(2),
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 120; i++ {
		g := loopgen.Loop(rng)
		m := machines[i%len(machines)]
		in, s := schedule(t, g, m)
		alloc := regalloc.AllocateMVE(in, s)
		if err := alloc.Validate(in, s); err != nil {
			t.Fatalf("loop %d on %s: allocation invalid: %v", i, m.Name, err)
		}
		if err := Run(in, s, alloc, 0); err != nil {
			t.Fatalf("loop %d on %s: %v", i, m.Name, err)
		}
		// Stage scheduling must preserve functional correctness with a
		// fresh allocation.
		stagesched.Optimize(in, s)
		alloc2 := regalloc.AllocateMVE(in, s)
		if err := Run(in, s, alloc2, 0); err != nil {
			t.Fatalf("loop %d on %s after stage scheduling: %v", i, m.Name, err)
		}
	}
}

// TestSimulateDetectsClobberedAllocation corrupts a register binding
// and requires the simulator to notice.
func TestSimulateDetectsClobberedAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := machine.NewBusedGP(2, 2, 1)
	detected := 0
	trials := 0
	for i := 0; i < 40 && trials < 12; i++ {
		g := loopgen.Loop(rng)
		in, s := schedule(t, g, m)
		alloc := regalloc.AllocateMVE(in, s)
		// Force two distinct bindings in the same cluster onto one
		// register; skip loops too small to have two.
		idx := -1
		for j := range alloc.Bindings {
			for k := j + 1; k < len(alloc.Bindings); k++ {
				a, b := alloc.Bindings[j], alloc.Bindings[k]
				if a.Cluster == b.Cluster && a.Register != b.Register &&
					a.Len > 1 && b.Len > 1 {
					alloc.Bindings[k].Register = a.Register
					idx = k
					break
				}
			}
			if idx >= 0 {
				break
			}
		}
		if idx < 0 {
			continue
		}
		trials++
		if err := Run(in, s, alloc, 0); err != nil {
			detected++
		}
	}
	if trials == 0 {
		t.Skip("no corruptible fixtures")
	}
	if detected < trials/2 {
		t.Errorf("simulator detected only %d/%d forced clobbers", detected, trials)
	}
}

func TestSimulateDetectsWrongRotation(t *testing.T) {
	// A value consumed two iterations later at II=1 needs MVE factor
	// >= 3; breaking the instance rotation must surface as a wrong tag.
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpStore, "")
	g.AddEdge(a, b, 2)
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 1}
	s := &sched.Schedule{II: 1, CycleOf: []int{0, 3}}
	alloc := regalloc.AllocateMVE(in, s)
	if err := Run(in, s, alloc, 9); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}
	// Collapse all instances of a onto one register: iterations now
	// clobber each other before the distance-2 use.
	for i := range alloc.Bindings {
		if alloc.Bindings[i].Value == a {
			alloc.Bindings[i].Register = 0
		}
	}
	if err := Run(in, s, alloc, 9); err == nil {
		t.Error("clobbered rotation not detected")
	} else if !strings.Contains(err.Error(), "reads") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestSimulateMemoryOrderingEdges(t *testing.T) {
	// Edges out of stores (memory dependences) are ordering only; the
	// simulator must not demand a register for them.
	g := ddg.NewGraph(3, 2)
	st := g.AddNode(ddg.OpStore, "x[i]")
	ld := g.AddNode(ddg.OpLoad, "x[i-1]")
	use := g.AddNode(ddg.OpFAdd, "")
	g.AddEdge(st, ld, 1) // RAW through memory
	g.AddEdge(ld, use, 0)
	g.AddEdge(use, st, 0)
	m := machine.NewUnifiedGP(4)
	in, s := schedule(t, g, m)
	alloc := regalloc.AllocateMVE(in, s)
	if err := Run(in, s, alloc, 10); err != nil {
		t.Fatalf("memory ordering edge mishandled: %v", err)
	}
}

// TestSimulateRotatingAllocation cross-validates the rotating-register
// allocator with the functional simulator on suite loops: every
// operand read must see the right value under rotation semantics.
func TestSimulateRotatingAllocation(t *testing.T) {
	machines := []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedFS(4, 4, 2),
		machine.NewGrid4(2),
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 90; i++ {
		g := loopgen.Loop(rng)
		m := machines[i%len(machines)]
		in, s := schedule(t, g, m)
		rot := regalloc.AllocateRotating(in, s)
		if err := rot.Validate(in, s); err != nil {
			t.Fatalf("loop %d on %s: allocation invalid: %v", i, m.Name, err)
		}
		if err := RunRotating(in, s, rot, 0); err != nil {
			t.Fatalf("loop %d on %s: %v", i, m.Name, err)
		}
	}
}

// TestSimulateRotatingDetectsUndersizedFile shrinks a rotating file
// and requires the simulator to catch the resulting clobber.
func TestSimulateRotatingDetectsUndersizedFile(t *testing.T) {
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpStore, "")
	g.AddEdge(a, b, 2)
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 3}
	s := &sched.Schedule{II: 3, CycleOf: []int{0, 1}}
	rot := regalloc.AllocateRotating(in, s)
	if err := RunRotating(in, s, rot, 12); err != nil {
		t.Fatalf("valid rotation rejected: %v", err)
	}
	rot.RegsPerCluster[0] = 2 // too small: instances wrap onto each other
	if err := RunRotating(in, s, rot, 12); err == nil {
		t.Error("undersized rotating file not detected")
	}
}
