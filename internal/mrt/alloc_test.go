package mrt

import (
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

// Steady-state allocation gates for the probe API: after a warm-up
// pass that sizes the journal, placement arena, and scratch buffers,
// probe/commit/release/rollback must not allocate on either fidelity.

func TestCapacityHotPathAllocFree(t *testing.T) {
	m := machine.NewBusedGP(3, 2, 2)
	c := NewCapacity(m, 4)
	c.EnableJournal()
	op := OpAt(0, 0, ddg.OpALU)
	cp := CopyAt(1, 0, []int{1, 2})

	work := func() {
		mark := c.JournalMark()
		c.CommitOp(op, 0)
		c.CommitOp(cp, 0)
		c.ReleaseOp(cp)
		c.JournalRollback(mark)
	}
	work() // warm the journal slabs

	if n := testing.AllocsPerRun(200, func() {
		if !c.ProbeOp(op, 0) || !c.ProbeOp(cp, 0) {
			t.Fatal("probes should succeed on an empty table")
		}
	}); n != 0 {
		t.Errorf("Capacity.ProbeOp allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, work); n != 0 {
		t.Errorf("Capacity commit/release/rollback allocates %.1f/op, want 0", n)
	}
}

// CopyFrom runs twice per assignment probe (snapshot and restore), so
// it must stay a copy between existing counter slabs.
func TestCapacityCopyFromAllocFree(t *testing.T) {
	m := machine.NewGrid4(2)
	src := NewCapacity(m, 3)
	src.CommitOp(OpAt(0, 0, ddg.OpALU), 0)
	src.CommitOp(CopyAt(1, 0, []int{1}), 0)
	dst := NewCapacity(m, 7)
	dst.EnableJournal()
	if n := testing.AllocsPerRun(200, func() { dst.CopyFrom(src) }); n != 0 {
		t.Errorf("Capacity.CopyFrom allocates %.1f/op, want 0", n)
	}
}

func TestCycleHotPathAllocFree(t *testing.T) {
	m := machine.NewBusedGP(3, 2, 2)
	c := NewCycle(m, 4)
	c.EnableJournal()
	op := OpAt(0, 0, ddg.OpALU)
	cp := CopyAt(1, 0, []int{1, 2})
	buf := make([]int, 0, 16)

	work := func() {
		mark := c.JournalMark()
		c.CommitOp(op, 1)
		c.CommitOp(cp, 2)
		c.ReleaseOp(Op{Node: 1})
		c.JournalRollback(mark)
	}
	work() // warm placements, arena, journal slabs

	if n := testing.AllocsPerRun(200, func() {
		if !c.ProbeOp(op, 1) || !c.ProbeOp(cp, 2) {
			t.Fatal("probes should succeed on an empty table")
		}
	}); n != 0 {
		t.Errorf("Cycle.ProbeOp allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, work); n != 0 {
		t.Errorf("Cycle commit/release/rollback allocates %.1f/op, want 0", n)
	}
	c.CommitOp(op, 1)
	if n := testing.AllocsPerRun(200, func() {
		buf = c.ConflictsOf(op, 1, buf)
	}); n != 0 {
		t.Errorf("Cycle.ConflictsOf allocates %.1f/op, want 0", n)
	}
}
