package regalloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/sched"
)

func TestRotatingSimpleChain(t *testing.T) {
	g := ddg.NewGraph(3, 2)
	a := g.AddNode(ddg.OpLoad, "")
	b := g.AddNode(ddg.OpALU, "")
	c := g.AddNode(ddg.OpStore, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 1}
	s := &sched.Schedule{II: 1, CycleOf: []int{0, 2, 3}}
	rot := AllocateRotating(in, s)
	if err := rot.Validate(in, s); err != nil {
		t.Fatal(err)
	}
	if rot.TotalRegisters() < 2 {
		t.Errorf("two simultaneously live values need >= 2 rotating registers, got %d", rot.TotalRegisters())
	}
}

func TestRotatingLongLifetimeNeedsNoUnrolling(t *testing.T) {
	// The MVE case: a value live 7 cycles at II=3 forces kernel
	// unrolling by 3 without rotation; a rotating file of 3 registers
	// handles it with ONE kernel copy.
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpStore, "")
	g.AddEdge(a, b, 2)
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 3}
	s := &sched.Schedule{II: 3, CycleOf: []int{0, 1}}
	rot := AllocateRotating(in, s)
	if err := rot.Validate(in, s); err != nil {
		t.Fatal(err)
	}
	if rot.RegsPerCluster[0] != 3 {
		t.Errorf("rotating file = %d registers, want 3", rot.RegsPerCluster[0])
	}
	if rot.MaxSpan() != 3 {
		t.Errorf("MaxSpan = %d, want 3", rot.MaxSpan())
	}
}

func TestRotatingDetectsImpossiblyTightValidate(t *testing.T) {
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpStore, "")
	g.AddEdge(a, b, 2)
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 3}
	s := &sched.Schedule{II: 3, CycleOf: []int{0, 1}}
	rot := AllocateRotating(in, s)
	rot.RegsPerCluster[0] = 2 // lie about the file size
	if err := rot.Validate(in, s); err == nil {
		t.Error("Validate accepted a file too small for the value's span")
	}
}

// rotatingMachines are the machines the rotating property test draws
// from.
var rotatingMachines = []*machine.Config{
	machine.NewBusedGP(2, 2, 1),
	machine.NewBusedFS(4, 4, 2),
	machine.NewGrid4(2),
}

// rotatingWithinBound schedules the generated loop of seed on m and
// checks the rotating allocation: valid, never below the per-cluster
// lower bound, and no more than twice MVE's registers plus two per
// cluster.
func rotatingWithinBound(t *testing.T, seed int64, m *machine.Config) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := loopgen.Loop(rng)
	in, s := schedule(t, g, m)
	rot := AllocateRotating(in, s)
	if err := rot.Validate(in, s); err != nil {
		t.Logf("seed %d on %s: %v", seed, m.Name, err)
		return false
	}
	// Rotation trades registers for zero unrolling: a single logical
	// name per value must avoid every instance of every neighbour,
	// so a rotating file can exceed MVE's pooled arc coloring —
	// but not unboundedly.
	mve := AllocateMVE(in, s)
	if rot.TotalRegisters() > 2*mve.TotalRegisters()+2*m.NumClusters() {
		t.Logf("seed %d on %s: rotating %d regs %v vs MVE %d %v — implausibly wasteful",
			seed, m.Name, rot.TotalRegisters(), rot.RegsPerCluster, mve.TotalRegisters(), mve.RegsPerCluster)
		return false
	}
	_, perCluster := lowerBound(in, s)
	for cl, need := range perCluster {
		if rot.RegsPerCluster[cl] < need {
			t.Logf("seed %d on %s: cluster %d file %d below lower bound %d",
				seed, m.Name, cl, rot.RegsPerCluster[cl], need)
			return false
		}
	}
	return true
}

// TestRotatingValidatesOnSuiteLoops is the rotating analogue of the
// MVE property test, and compares the two allocators' register needs:
// rotation must never need kernel unrolling and should use no more
// registers than MVE allocates in total.
func TestRotatingValidatesOnSuiteLoops(t *testing.T) {
	f := func(seed int64, mIdx uint8) bool {
		return rotatingWithinBound(t, seed, rotatingMachines[int(mIdx)%len(rotatingMachines)])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRotatingFilesFlooredPerCluster pins inputs the property test
// once drew and failed: each has one cluster holding a value that
// spans many iterations, and flooring every cluster's file at that
// global span (instead of the cluster's own) blew the bound — seed
// 4430928447742186498 on fs-4c-4b-2p took files [12 14 12 12] against
// MVE's [3 14 1 1].
func TestRotatingFilesFlooredPerCluster(t *testing.T) {
	for _, seed := range []int64{4430928447742186498, 1832547576517937365, -7700962933486570154} {
		for _, m := range rotatingMachines {
			if !rotatingWithinBound(t, seed, m) {
				t.Errorf("seed %d on %s: rotating allocation out of bounds", seed, m.Name)
			}
		}
	}
}

func TestOverlapDeltas(t *testing.T) {
	// a live [0, 2), b live [1, 3) at II=4: only δ=0 overlaps.
	a := Lifetime{Start: 0, Len: 2}
	b := Lifetime{Start: 1, Len: 2}
	d := overlapDeltas(a, b, 4, 8)
	if len(d) != 1 || d[0] != 0 {
		t.Errorf("deltas = %v, want [0]", d)
	}
	// b live [0, 9) at II=2 against a live [0, 2): δ in {-4..0}.
	b2 := Lifetime{Start: 0, Len: 9}
	d2 := overlapDeltas(a, b2, 2, 8)
	if len(d2) != 5 || d2[0] != -4 || d2[4] != 0 {
		t.Errorf("deltas = %v, want [-4..0]", d2)
	}
}
