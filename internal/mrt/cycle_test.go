package mrt

import (
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

func TestCyclePlaceOpModuloWrap(t *testing.T) {
	m := machine.NewBusedGP(1, 1, 1)
	m.Buses = 0
	c := NewCycle(m, 3)

	// Cycle 7 occupies slot 1; so do cycles 1, 4, 10...
	for i := 0; i < 4; i++ {
		if !c.CommitOp(OpAt(i, 0, ddg.OpALU), 7) {
			t.Fatalf("op %d should fit (4 units)", i)
		}
	}
	if c.ProbeOp(OpAt(9, 0, ddg.OpALU), 1) {
		t.Error("slot 1 should be full (modulo aliasing of cycle 7)")
	}
	if !c.ProbeOp(OpAt(9, 0, ddg.OpALU), 2) {
		t.Error("slot 2 should be free")
	}
	if !c.ReleaseOp(Op{Node: 2}) {
		t.Error("ReleaseOp failed")
	}
	if !c.ProbeOp(OpAt(9, 0, ddg.OpALU), 10) {
		t.Error("released slot should accept a new op at an aliasing cycle")
	}
	if c.ReleaseOp(Op{Node: 2}) {
		t.Error("double ReleaseOp should report false")
	}
}

func TestCycleFSUnitSelection(t *testing.T) {
	m := machine.NewBusedFS(1, 1, 1)
	m.Buses = 0
	c := NewCycle(m, 1)
	if !c.CommitOp(OpAt(0, 0, ddg.OpALU), 0) || !c.CommitOp(OpAt(1, 0, ddg.OpShift), 0) {
		t.Fatal("two integer units should take two integer ops")
	}
	if c.ProbeOp(OpAt(2, 0, ddg.OpBranch), 0) {
		t.Error("third integer op must not fit")
	}
	if !c.ProbeOp(OpAt(2, 0, ddg.OpFMul), 0) {
		t.Error("float unit should still be free")
	}
	if !c.CommitOp(OpAt(2, 0, ddg.OpFMul), 1) {
		t.Error("cycle 1 aliases slot 0 at II=1 and the float unit is free there")
	}
}

func TestCycleCommitOpDuplicatePanics(t *testing.T) {
	m := machine.NewBusedGP(1, 1, 1)
	m.Buses = 0
	c := NewCycle(m, 2)
	c.CommitOp(OpAt(0, 0, ddg.OpALU), 0)
	defer func() {
		if recover() == nil {
			t.Error("placing the same node twice should panic")
		}
	}()
	c.CommitOp(OpAt(0, 0, ddg.OpALU), 1)
}

func TestCycleBroadcastCopy(t *testing.T) {
	m := machine.NewBusedGP(3, 1, 1)
	c := NewCycle(m, 2)

	if !c.CommitOp(CopyAt(10, 0, []int{1, 2}), 0) {
		t.Fatal("copy should fit")
	}
	// Bus is single: another copy at the same slot must fail, even from
	// another cluster.
	if c.ProbeOp(CopyAt(11, 1, []int{2}), 2) {
		t.Error("bus slot 0 should be taken (cycle 2 aliases it)")
	}
	if !c.ProbeOp(CopyAt(11, 1, []int{2}), 1) {
		t.Error("bus slot 1 should be free")
	}
	// Write port of cluster 1 at slot 0 is taken.
	if c.ProbeOp(CopyAt(11, 2, []int{1}), 0) {
		t.Error("write port on cluster 1 at slot 0 should be taken")
	}
	c.ReleaseOp(Op{Node: 10})
	if !c.ProbeOp(CopyAt(11, 2, []int{1}), 0) {
		t.Error("release should free bus, read and write ports")
	}
}

func TestCycleCopyMultipleTargetsNeedDistinctWritePorts(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1)
	c := NewCycle(m, 1)
	// Two targets on the same cluster pool need two write ports; only 1.
	if c.ProbeOp(CopyAt(0, 0, []int{1, 1}), 0) {
		t.Error("two writes into one single-ported cluster at one cycle")
	}
}

func TestCycleDuplicateTargetsTakeDistinctWritePorts(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 2)
	c := NewCycle(m, 1)
	if !c.CommitOp(CopyAt(0, 0, []int{1, 1}), 0) {
		t.Fatal("duplicate-target copy should fit with 2 write ports")
	}
	p := placementOf(c, 0)
	if p == nil || len(p.writeSlots) != 2 || p.writeSlots[0].port == p.writeSlots[1].port {
		t.Errorf("duplicate targets must occupy distinct write ports: %+v", p)
	}
	if c.ProbeOp(CopyAt(1, 1, []int{1}), 0) {
		t.Error("write ports on cluster 1 exhausted; probe should fail")
	}
}

func TestCycleLinkCopy(t *testing.T) {
	m := machine.NewGrid4(1)
	c := NewCycle(m, 2)
	if !c.CommitOp(CopyAt(5, 0, []int{1}), 0) {
		t.Fatal("link copy should fit")
	}
	if c.ProbeOp(CopyAt(6, 1, []int{0}), 0) {
		t.Error("link 0-1 at slot 0 should be busy (both directions share it)")
	}
	if !c.ProbeOp(CopyAt(6, 1, []int{0}), 1) {
		t.Error("link 0-1 at slot 1 should be free")
	}
	if c.ProbeOp(CopyAt(6, 0, []int{3}), 1) {
		t.Error("copy to a non-adjacent cluster must be rejected")
	}
	if c.ProbeOp(CopyAt(6, 0, []int{1, 2}), 1) {
		t.Error("point-to-point copies must have exactly one target")
	}
}

func TestCycleConflictsOf(t *testing.T) {
	m := machine.NewBusedGP(1, 1, 1)
	m.Buses = 0
	c := NewCycle(m, 1)
	for i := 0; i < 4; i++ {
		c.CommitOp(OpAt(i, 0, ddg.OpALU), 0)
	}
	conflicts := c.ConflictsOf(OpAt(9, 0, ddg.OpFAdd), 3, nil)
	if len(conflicts) != 4 {
		t.Errorf("ConflictsOf = %v, want all four occupants", conflicts)
	}
	// The result reuses the caller's buffer.
	buf := make([]int, 0, 8)
	conflicts = c.ConflictsOf(OpAt(9, 0, ddg.OpFAdd), 0, buf)
	if len(conflicts) != 4 || &conflicts[0] != &buf[:1][0] {
		t.Error("ConflictsOf must append into the passed buffer")
	}
}

func TestCycleCopyConflictsOf(t *testing.T) {
	m := machine.NewBusedGP(2, 1, 1)
	c := NewCycle(m, 1)
	c.CommitOp(CopyAt(7, 0, []int{1}), 0)
	conflicts := c.ConflictsOf(CopyAt(9, 0, []int{1}), 0, nil)
	if len(conflicts) != 1 || conflicts[0] != 7 {
		t.Errorf("copy ConflictsOf = %v, want [7]", conflicts)
	}
}

// placementOf returns the recorded placement of node, or nil.
func placementOf(c *Cycle, node int) *Placement {
	if node < 0 || node >= len(c.placed) {
		return nil
	}
	return c.placed[node]
}

func TestCyclePlacementOf(t *testing.T) {
	m := machine.NewBusedGP(1, 1, 1)
	m.Buses = 0
	c := NewCycle(m, 4)
	c.CommitOp(OpAt(3, 0, ddg.OpLoad), 9)
	p := placementOf(c, 3)
	if p == nil || p.Cycle != 9 || p.Cluster != 0 {
		t.Errorf("PlacementOf = %+v", p)
	}
	if placementOf(c, 99) != nil || placementOf(c, -1) != nil {
		t.Error("PlacementOf unknown node should be nil")
	}
	c.ReleaseOp(Op{Node: 3})
	if placementOf(c, 3) != nil {
		t.Error("released node should have nil placement")
	}
}

func TestCycleNegativeCycles(t *testing.T) {
	m := machine.NewBusedGP(1, 1, 1)
	m.Buses = 0
	c := NewCycle(m, 3)
	// Cycle -1 occupies slot 2 (SMS places against successors and may
	// go negative before normalization).
	if !c.CommitOp(OpAt(0, 0, ddg.OpALU), -1) {
		t.Fatal("negative cycle placement failed")
	}
	for i := 1; i < 4; i++ {
		c.CommitOp(OpAt(i, 0, ddg.OpALU), 2)
	}
	if c.ProbeOp(OpAt(9, 0, ddg.OpALU), -4) {
		t.Error("slot 2 should be full; -4 aliases it")
	}
}

func TestCycleResetIIReusesSlabs(t *testing.T) {
	m := machine.NewGrid4(1)
	c := NewCycle(m, 4)
	c.CommitOp(OpAt(0, 0, ddg.OpALU), 3)
	c.CommitOp(CopyAt(1, 0, []int{1}), 2)

	c.ResetII(2)
	if c.ii != 2 {
		t.Errorf("II after ResetII = %d, want 2", c.ii)
	}
	if placementOf(c, 0) != nil || placementOf(c, 1) != nil {
		t.Error("ResetII should clear placements")
	}
	for s := 0; s < 2; s++ {
		if !c.ProbeOp(OpAt(2, 0, ddg.OpALU), s) || !c.ProbeOp(CopyAt(3, 0, []int{1}), s) {
			t.Errorf("slot %d not empty after ResetII", s)
		}
	}
}

// TestCycleResetIIShrinks checks the slab retention policy: a table
// retargeted from a huge II to a small one drops its oversized backing
// arrays instead of pinning them, while small-II churn (the normal
// escalation pattern) keeps the backing stable.
func TestCycleResetIIShrinks(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1)
	c := NewCycle(m, 6000)
	grown := cap(c.owner)
	c.ResetII(2)
	if shrunk := cap(c.owner); shrunk >= grown {
		t.Fatalf("owner slab not shrunk: cap %d at II 6000, %d at II 2", grown, shrunk)
	}
	if !c.CommitOp(OpAt(0, 0, ddg.OpALU), 0) {
		t.Fatalf("commit failed after shrink")
	}

	c2 := NewCycle(m, 8)
	stable := cap(c2.fuBusy)
	c2.ResetII(4)
	c2.ResetII(8)
	if got := cap(c2.fuBusy); got != stable {
		t.Fatalf("small table churned: cap %d -> %d across II 8->4->8", stable, got)
	}
}
