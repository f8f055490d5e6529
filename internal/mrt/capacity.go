// Package mrt implements modulo reservation tables for a clustered
// machine at two fidelities:
//
//   - Capacity: slot-cycle counting per resource class, used by the
//     cluster-assignment phase, which knows which cluster an operation
//     lands on but not yet in which cycle (the paper's Figure 7/8
//     bookkeeping, including room for copies).
//   - Cycle: exact per-instance, per-cycle occupancy, used by the
//     modulo schedulers in phase two.
//
// Both fidelities speak the same probe API — ProbeOp/CommitOp/ReleaseOp
// over an Op description, plus the shared Journal — so the assignment
// engine and the schedulers are written against one surface (see Table).
package mrt

import (
	"fmt"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

// numFU is machine.NumFUClasses, shortened for index arithmetic.
const numFU = int(machine.NumFUClasses)

// Capacity tracks, for one candidate II, how many of each resource's
// II slot-cycles are already spoken for on every cluster. Local
// resources are function units (per class) and bus read/write ports;
// global resources are broadcast buses and point-to-point links.
//
// Every probe is a precomputed table lookup: the charge plan
// (classOf/occOf/linkTab) resolves an Op to the counters it charges
// without re-deriving unit compatibility, occupancy, or link topology
// per call, and per-cluster aggregates (freeFU, linkFreeAt) answer
// FreeSlots and MaxReservableCopies in O(1).
type Capacity struct {
	m  *machine.Config
	ii int
	nc int

	// Charge plan, structural (II-invariant), shared read-only with
	// every table of the same machine (see planOf).
	classOf []int8  // [cl*NumOpKinds+k] -> FU class charged, or -1
	occOf   []int   // [k] -> function-unit occupancy (slot-cycles)
	fuCnt   []int   // [cl*numFU+class] -> unit count
	linkTab []int   // [src*nc+dst] -> link index, or -1
	linksAt [][]int // [cl] -> incident link indices

	// Usage counters and per-II capacities, all carved from counters.
	counters  []int
	fuUsed    []int // [cl*numFU+class] slot-cycles consumed
	fuCap     []int // [cl*numFU+class] total slot-cycles (= count * II)
	freeFU    []int // [cl] aggregate free FU slot-cycles (all classes)
	readUsed  []int // [cl]
	readCap   []int // [cl]
	writeUsed []int // [cl]
	writeCap  []int // [cl]
	linkUsed  []int // [link]
	linkFree  []int // [cl] aggregate free slot-cycles of incident links
	busUsed   int
	busCap    int

	rbBuf []int // rollback scratch for event targets

	Journal
}

// NewCapacity returns an empty capacity table for machine m at the
// given II.
func NewCapacity(m *machine.Config, ii int) *Capacity {
	if ii <= 0 {
		panic(fmt.Sprintf("mrt: non-positive II %d", ii))
	}
	nc := m.NumClusters()
	nl := len(m.Links)
	c := &Capacity{m: m, nc: nc}

	// Charge plan: shared across every table of the same machine.
	p := planOf(m)
	c.classOf = p.classOf
	c.occOf = p.occOf
	c.fuCnt = p.fuCnt
	c.linkTab = p.linkTab
	c.linksAt = p.linksAt

	// All counters live in one slab, so CopyFrom is one copy.
	slab := make([]int, 2*nc*numFU+7*nc+nl)
	c.counters = slab
	carve := func(n int) []int {
		s := slab[:n:n]
		slab = slab[n:]
		return s
	}
	c.fuUsed = carve(nc * numFU)
	c.fuCap = carve(nc * numFU)
	c.freeFU = carve(nc)
	c.readUsed = carve(nc)
	c.readCap = carve(nc)
	c.writeUsed = carve(nc)
	c.writeCap = carve(nc)
	c.linkUsed = carve(nl)
	c.linkFree = carve(nc)

	c.ResetII(ii)
	return c
}

// II returns the initiation interval the table was sized for.
//
//schedvet:alloc-free
func (c *Capacity) II() int { return c.ii }

// Machine returns the machine description backing the table.
//
//schedvet:alloc-free
func (c *Capacity) Machine() *machine.Config { return c.m }

// ChargeClass returns the FU class an operation of kind k is counted
// against on cluster cl: the specialized class when the cluster has
// such units, otherwise the general-purpose pool; -1 when the cluster
// cannot execute the kind at all. Callers use it to group operations
// competing for the same pool. A precomputed lookup of the charge plan.
//
//schedvet:alloc-free
func (c *Capacity) ChargeClass(cl int, k ddg.OpKind) machine.FUClass {
	return machine.FUClass(c.classOf[cl*ddg.NumOpKinds+int(k)])
}

// Reset clears all usage counters (capacities are untouched) and
// discards the journal, returning the table to its freshly constructed
// state without reallocating.
//
//schedvet:alloc-free
func (c *Capacity) Reset() {
	for i := range c.fuUsed {
		c.fuUsed[i] = 0
	}
	for cl := 0; cl < c.nc; cl++ {
		free := 0
		for cls := 0; cls < numFU; cls++ {
			free += c.fuCap[cl*numFU+cls]
		}
		c.freeFU[cl] = free
		c.readUsed[cl] = 0
		c.writeUsed[cl] = 0
		c.linkFree[cl] = len(c.linksAt[cl]) * c.ii
	}
	c.busUsed = 0
	for i := range c.linkUsed {
		c.linkUsed[i] = 0
	}
	c.JournalReset()
}

// ResetII clears the table like Reset and re-sizes every capacity for
// a new initiation interval, so II-escalation loops can reuse one
// table instead of allocating per candidate. Journaling state is
// preserved (the journal itself is discarded).
//
//schedvet:alloc-free
func (c *Capacity) ResetII(ii int) {
	if ii <= 0 {
		panic(fmt.Sprintf("mrt: non-positive II %d", ii))
	}
	c.ii = ii
	for i := range c.fuCap {
		c.fuCap[i] = c.fuCnt[i] * ii
	}
	for cl := 0; cl < c.nc; cl++ {
		c.readCap[cl] = c.m.Clusters[cl].ReadPorts * ii
		c.writeCap[cl] = c.m.Clusters[cl].WritePorts * ii
	}
	c.busCap = c.m.Buses * ii
	c.Reset()
}

// Probe API -----------------------------------------------------------------

// ProbeOp reports whether op still fits: free function-unit slot-cycles
// of the charged class for ordinary operations (one per cycle of the
// kind's occupancy, and no single operation may outlast the II on one
// unit), or a read-port, fabric, and write-port slot-cycle for copies.
// The cycle argument is ignored: this fidelity counts slot-cycles
// without committing to cycles.
//
//schedvet:alloc-free
func (c *Capacity) ProbeOp(op Op, cycle int) bool {
	if op.Kind == ddg.OpCopy {
		return c.probeCopy(op)
	}
	cls := c.classOf[op.Cluster*ddg.NumOpKinds+int(op.Kind)]
	if cls < 0 {
		return false
	}
	occ := c.occOf[op.Kind]
	idx := op.Cluster*numFU + int(cls)
	return occ <= c.ii && c.fuUsed[idx]+occ <= c.fuCap[idx]
}

// probeCopy checks a copy sourced on op.Cluster: a read-port slot-cycle
// there, a fabric slot-cycle (a bus, or the link to the single adjacent
// target on point-to-point machines), and a write-port slot-cycle on
// every target.
//
//schedvet:alloc-free
func (c *Capacity) probeCopy(op Op) bool {
	src := op.Cluster
	if c.readUsed[src] >= c.readCap[src] {
		return false
	}
	if c.m.Network == machine.Broadcast {
		if c.busUsed >= c.busCap {
			return false
		}
	} else {
		if len(op.Targets) != 1 {
			return false
		}
		li := c.linkTab[src*c.nc+op.Targets[0]]
		if li < 0 || c.linkUsed[li] >= c.ii {
			return false
		}
	}
	for _, t := range op.Targets {
		if c.writeUsed[t] >= c.writeCap[t] {
			return false
		}
	}
	return true
}

// CommitOp reserves op's resources. It reports false (and changes
// nothing) when they no longer fit. The cycle argument is ignored.
//
//schedvet:alloc-free
func (c *Capacity) CommitOp(op Op, cycle int) bool {
	if !c.ProbeOp(op, cycle) {
		return false
	}
	c.applyCharges(op, 1)
	if c.journaling {
		c.record(op, 0, false, op.Targets)
	}
	return true
}

// ReleaseOp releases the resources previously reserved by CommitOp for
// an identically described op. It panics on underflow — releasing
// something that was never committed — and always reports true.
//
//schedvet:alloc-free
func (c *Capacity) ReleaseOp(op Op) bool {
	if op.Kind == ddg.OpCopy {
		src := op.Cluster
		if c.readUsed[src] <= 0 {
			panic("mrt: ReleaseOp copy read-port underflow")
		}
		if c.m.Network == machine.Broadcast {
			if c.busUsed <= 0 {
				panic("mrt: ReleaseOp copy bus underflow")
			}
		} else if len(op.Targets) != 1 || c.linkTab[src*c.nc+op.Targets[0]] < 0 ||
			c.linkUsed[c.linkTab[src*c.nc+op.Targets[0]]] <= 0 {
			panic("mrt: ReleaseOp copy link underflow")
		}
		for _, t := range op.Targets {
			if c.writeUsed[t] <= 0 {
				panic("mrt: ReleaseOp copy write-port underflow")
			}
		}
	} else {
		cls := c.classOf[op.Cluster*ddg.NumOpKinds+int(op.Kind)]
		if cls < 0 || c.fuUsed[op.Cluster*numFU+int(cls)] < c.occOf[op.Kind] {
			panic(fmt.Sprintf("mrt: ReleaseOp(%d, %s) underflow", op.Cluster, op.Kind))
		}
	}
	c.applyCharges(op, -1)
	if c.journaling {
		c.record(op, 0, true, op.Targets)
	}
	return true
}

// applyCharges moves op's counters by dir (+1 commit, -1 release),
// maintaining the O(1) aggregates. It performs no validity checks: the
// callers (CommitOp after a probe, ReleaseOp after its underflow guard,
// and rollback restoring known-good state) have already established
// them.
//
//schedvet:alloc-free
func (c *Capacity) applyCharges(op Op, dir int) {
	if op.Kind != ddg.OpCopy {
		cls := c.classOf[op.Cluster*ddg.NumOpKinds+int(op.Kind)]
		occ := c.occOf[op.Kind] * dir
		c.fuUsed[op.Cluster*numFU+int(cls)] += occ
		c.freeFU[op.Cluster] -= occ
		return
	}
	c.readUsed[op.Cluster] += dir
	if c.m.Network == machine.Broadcast {
		c.busUsed += dir
	} else {
		li := c.linkTab[op.Cluster*c.nc+op.Targets[0]]
		c.linkUsed[li] += dir
		l := c.m.Links[li]
		c.linkFree[l.A] -= dir
		c.linkFree[l.B] -= dir
	}
	for _, t := range op.Targets {
		c.writeUsed[t] += dir
	}
}

// JournalRollback undoes, in reverse order, every commit and release
// recorded after mark, restoring the table to its state at JournalMark
// time.
//
//schedvet:alloc-free
func (c *Capacity) JournalRollback(mark int) {
	for i := len(c.events) - 1; i >= mark; i-- {
		ev := &c.events[i]
		op, buf := c.eventOp(ev, c.rbBuf)
		c.rbBuf = buf
		if ev.release {
			c.applyCharges(op, 1)
		} else {
			c.applyCharges(op, -1)
		}
	}
	c.truncate(mark)
}

// Queries -------------------------------------------------------------------

// FreeOpSlots returns the remaining FU slot-cycles usable by kind k on
// cluster cl.
//
//schedvet:alloc-free
func (c *Capacity) FreeOpSlots(cl int, k ddg.OpKind) int {
	cls := c.classOf[cl*ddg.NumOpKinds+int(k)]
	if cls < 0 {
		return 0
	}
	idx := cl*numFU + int(cls)
	return c.fuCap[idx] - c.fuUsed[idx]
}

// FreeSlots returns the total free FU slot-cycles on cluster cl across
// all classes, the tie-breaker of selection line 8 ("maximize free
// resources on the cluster"). O(1): the aggregate is maintained on
// every charge.
//
//schedvet:alloc-free
func (c *Capacity) FreeSlots(cl int) int { return c.freeFU[cl] }

// MaxReservableCopies returns MRC_C of the paper: an upper bound on how
// many more copies sourced from cluster cl still have room, limited by
// the cluster's free read-port slot-cycles and by the free slot-cycles
// of the shared fabric (buses, or the links incident to cl). O(1): the
// incident-link aggregate is maintained on every charge.
//
//schedvet:alloc-free
func (c *Capacity) MaxReservableCopies(cl int) int {
	freeRead := c.readCap[cl] - c.readUsed[cl]
	if freeRead < 0 {
		freeRead = 0
	}
	var freeFabric int
	if c.m.Network == machine.Broadcast {
		freeFabric = c.busCap - c.busUsed
	} else {
		freeFabric = c.linkFree[cl]
	}
	if freeFabric < 0 {
		freeFabric = 0
	}
	if freeRead < freeFabric {
		return freeRead
	}
	return freeFabric
}

// MaxReservableIncoming is the incoming mirror of MaxReservableCopies:
// the headroom for copies arriving at cluster cl, limited by its free
// write-port slot-cycles and the free slot-cycles of the shared fabric
// each arriving copy also consumes.
//
//schedvet:alloc-free
func (c *Capacity) MaxReservableIncoming(cl int) int {
	free := c.writeCap[cl] - c.writeUsed[cl]
	var fabric int
	if c.m.Network == machine.Broadcast {
		fabric = c.busCap - c.busUsed
	} else {
		fabric = c.linkFree[cl]
	}
	if fabric < free {
		free = fabric
	}
	if free < 0 {
		free = 0
	}
	return free
}

// FreeReadPortSlots returns the remaining read-port slot-cycles on cl.
//
//schedvet:alloc-free
func (c *Capacity) FreeReadPortSlots(cl int) int { return c.readCap[cl] - c.readUsed[cl] }

// FreeWritePortSlots returns the remaining write-port slot-cycles on cl.
//
//schedvet:alloc-free
func (c *Capacity) FreeWritePortSlots(cl int) int { return c.writeCap[cl] - c.writeUsed[cl] }

// FreeBusSlots returns the remaining broadcast-bus slot-cycles.
//
//schedvet:alloc-free
func (c *Capacity) FreeBusSlots() int { return c.busCap - c.busUsed }

// FreeLinkSlots returns the remaining slot-cycles of link li.
//
//schedvet:alloc-free
func (c *Capacity) FreeLinkSlots(li int) int { return c.ii - c.linkUsed[li] }

// Copy / restore ------------------------------------------------------------

// CopyFrom overwrites the receiver's counters with src's, a
// slab-reusing restore for tables of the same machine (it panics
// otherwise). The receiver's journal is discarded — the recorded
// history no longer matches — but its journaling mode is kept. Use it
// where Clone would allocate per restore; keep Clone for cold paths.
//
//schedvet:alloc-free
func (c *Capacity) CopyFrom(src *Capacity) {
	if c.m != src.m {
		panic("mrt: Capacity.CopyFrom across machines")
	}
	c.ii = src.ii
	copy(c.counters, src.counters)
	c.busUsed = src.busUsed
	c.busCap = src.busCap
	c.JournalReset()
}

// Clone returns an independent deep copy, used for tentative
// assignments that may be discarded. The clone's journal starts empty
// and disabled regardless of the receiver's journaling state.
func (c *Capacity) Clone() *Capacity {
	n := NewCapacity(c.m, c.ii)
	n.CopyFrom(c)
	return n
}
