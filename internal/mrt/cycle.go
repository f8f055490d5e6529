package mrt

import (
	"fmt"
	"math/bits"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

// Cycle is the cycle-exact modulo reservation table used by the
// schedulers in phase two. Every resource instance (a specific function
// unit, port, bus, or link) has II slots; placing an operation at cycle
// t occupies slot t mod II of each resource it needs.
//
// Occupancy is packed into per-(cluster, slot) uint64 lane masks — bit
// u of fuBusy[cl*ii+s] says unit u of cluster cl is busy at slot s — so
// a probe is a handful of AND-NOT words against a precomputed
// compatibility mask instead of a per-unit, per-slot loop: the first
// free compatible unit is one TrailingZeros64, and free write-port
// counts are one OnesCount64. Attribution (who occupies what, for
// eviction) lives in a parallel owner slab that is only read on actual
// conflicts; owner entries behind cleared busy bits are stale and never
// consulted, so Unplace does not touch them. The packing caps every
// resource family at 64 instances per cluster (and 64 buses/links per
// machine), which NewCycle enforces.
type Cycle struct {
	m  *machine.Config
	ii int
	nc int

	// Structural tables, II-invariant, shared read-only with every
	// table of the same machine (see planOf).
	compat   []uint64 // [cl*NumOpKinds+k] -> mask of units that can run k
	occOf    []int    // [k] -> unit occupancy in slots
	linkTab  []int32  // [src*nc+dst] -> link index, or -1
	fuAll    []uint64 // [cl] -> mask of all units
	readAll  []uint64 // [cl] -> mask of all read ports
	writeAll []uint64 // [cl] -> mask of all write ports
	busAll   uint64
	linkAll  uint64
	fuBase   []int32 // [cl] -> global owner-row base of the cluster's units
	rdBase   []int32
	wrBase   []int32
	busBase  int32
	linkBase int32
	rows     int // total owner rows

	// Per-II occupancy state.
	fuBusy    []uint64 // [cl*ii+s]
	readBusy  []uint64 // [cl*ii+s]
	writeBusy []uint64 // [cl*ii+s]
	busBusy   []uint64 // [s]
	linkBusy  []uint64 // [s]
	owner     []int32  // [row*ii+s] -> node; valid only under a set busy bit

	placed []*Placement // [node] -> placement, nil when unplaced
	freePl []*Placement // recycled placement records
	arena  []Placement  // chunked backing store, pointer-stable
}

// Placement records exactly which slots a scheduled node occupies, so
// releases can return them and callers can inspect decisions. The
// pointer stays valid while the node remains placed; the record is
// recycled once the node is released.
type Placement struct {
	Node    int
	Cycle   int
	Cluster int // executing cluster (source cluster for copies)

	fuUnit     int // occupied FU index, -1 for copies
	occupancy  int // consecutive slots held on the unit (1 if pipelined)
	readPort   int // occupied read port on Cluster, -1 for non-copies
	busIndex   int // occupied bus, -1 when unused
	linkIndex  int // occupied link, -1 when unused
	writeSlots []wSlot
}

type wSlot struct {
	cluster int
	port    int
}

// NewCycle returns an empty cycle-exact table for machine m at the
// given II.
func NewCycle(m *machine.Config, ii int) *Cycle {
	nc := m.NumClusters()
	c := &Cycle{m: m, nc: nc}

	if m.Buses > 64 || len(m.Links) > 64 {
		panic("mrt: more than 64 buses or links unsupported by the bitset layout")
	}
	for cl := 0; cl < nc; cl++ {
		cfg := &m.Clusters[cl]
		if len(cfg.FUs) > 64 || cfg.ReadPorts > 64 || cfg.WritePorts > 64 {
			panic("mrt: more than 64 resource instances per cluster unsupported by the bitset layout")
		}
	}
	p := planOf(m)
	c.compat = p.compat
	c.occOf = p.occOf
	c.linkTab = p.linkTab32
	c.fuAll = p.fuAll
	c.readAll = p.readAll
	c.writeAll = p.writeAll
	c.busAll = p.busAll
	c.linkAll = p.linkAll
	c.fuBase = p.fuBase
	c.rdBase = p.rdBase
	c.wrBase = p.wrBase
	c.busBase = p.busBase
	c.linkBase = p.linkBase
	c.rows = p.rows

	c.ResetII(ii)
	return c
}

// allMask returns a mask with the low n bits set.
func allMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// Machine returns the machine description backing the table.
//
//schedvet:alloc-free
func (c *Cycle) Machine() *machine.Config { return c.m }

// ResetII clears the table and re-sizes it for a new initiation
// interval, so II-escalation loops reuse one table's slabs instead of
// allocating per candidate.
func (c *Cycle) ResetII(ii int) {
	if ii <= 0 {
		panic(fmt.Sprintf("mrt: non-positive II %d", ii))
	}
	c.ii = ii
	c.fuBusy = growU64(c.fuBusy, c.nc*ii)
	c.readBusy = growU64(c.readBusy, c.nc*ii)
	c.writeBusy = growU64(c.writeBusy, c.nc*ii)
	c.busBusy = growU64(c.busBusy, ii)
	c.linkBusy = growU64(c.linkBusy, ii)
	c.owner = growI32(c.owner, c.rows*ii)
	for i := range c.placed {
		if p := c.placed[i]; p != nil {
			c.freePl = append(c.freePl, p)
			c.placed[i] = nil
		}
	}
}

// growU64 resizes s to n entries, zeroed, reusing its backing array
// when it is large enough — unless it is grossly oversized for this
// request, in which case it is dropped for a right-sized one so a
// table retargeted from a huge II (or a huge machine's row count)
// does not pin that memory for the rest of a session.
func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n || tableOversized(cap(s), n) {
		return make([]uint64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// growI32 resizes s to n entries, reusing its backing array under the
// same retention policy as growU64. Contents are not cleared: owner
// entries are only read under set busy bits, which ResetII has just
// cleared.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n || tableOversized(cap(s), n) {
		return make([]int32, n)
	}
	return s[:n]
}

// tableOversized reports whether a retained backing array of capacity
// c is wasteful for a need of n entries; the floor keeps small tables
// stable across II churn.
//
//schedvet:alloc-free
func tableOversized(c, n int) bool {
	const shrinkFloor = 4096
	return c > shrinkFloor && c > 4*n
}

// slot maps an absolute cycle to its modulo slot.
//
//schedvet:alloc-free
func (c *Cycle) slot(cycle int) int {
	s := cycle % c.ii
	if s < 0 {
		s += c.ii
	}
	return s
}

// Probe API -----------------------------------------------------------------

// ProbeOp reports whether op fits at the given cycle: a compatible free
// function unit for ordinary operations (non-pipelined kinds hold the
// unit for their whole latency), or — for copies — a read port on the
// source, a bus (or the link to the single adjacent target on
// point-to-point machines), and a write port on each target.
//
//schedvet:alloc-free
func (c *Cycle) ProbeOp(op Op, cycle int) bool {
	if op.Kind == ddg.OpCopy {
		return c.probeCopy(op, c.slot(cycle))
	}
	return c.availFU(op.Cluster, op.Kind, c.slot(cycle)) != 0
}

// availFU returns the mask of compatible units of cluster cl that are
// free for kind k's whole occupancy window starting at slot s. The
// lowest set bit is the unit a commit would take.
//
//schedvet:alloc-free
func (c *Cycle) availFU(cl int, k ddg.OpKind, s int) uint64 {
	occ := c.occOf[k]
	if occ > c.ii {
		return 0 // the unit would overlap itself across iterations
	}
	avail := c.compat[cl*ddg.NumOpKinds+int(k)]
	base := cl * c.ii
	for d := 0; d < occ && avail != 0; d++ {
		avail &^= c.fuBusy[base+(s+d)%c.ii]
	}
	return avail
}

// probeCopy checks a copy sourced on op.Cluster at modulo slot s.
// Multiple targets may not collapse onto one write-port pool unless the
// pool has room for all of them; targets number at most one per
// cluster, so counting duplicates by scanning beats a map.
//
//schedvet:alloc-free
func (c *Cycle) probeCopy(op Op, s int) bool {
	src := op.Cluster
	if c.readAll[src]&^c.readBusy[src*c.ii+s] == 0 {
		return false
	}
	if c.m.Network == machine.Broadcast {
		if c.busAll&^c.busBusy[s] == 0 {
			return false
		}
	} else {
		if len(op.Targets) != 1 {
			return false
		}
		li := c.linkTab[src*c.nc+op.Targets[0]]
		if li < 0 || c.linkBusy[s]&(1<<uint(li)) != 0 {
			return false
		}
	}
	for i, t := range op.Targets {
		need := 1
		dup := false
		for _, u := range op.Targets[:i] {
			if u == t {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		for _, u := range op.Targets[i+1:] {
			if u == t {
				need++
			}
		}
		if bits.OnesCount64(c.writeAll[t]&^c.writeBusy[t*c.ii+s]) < need {
			return false
		}
	}
	return true
}

// CommitOp places op at the given cycle, reserving a concrete resource
// instance per requirement (the lowest-indexed free one, matching the
// first-free scan of the slot-loop layout). It reports false without
// changes when the resources are not all free, and panics when node is
// already placed.
//
//schedvet:alloc-free
func (c *Cycle) CommitOp(op Op, cycle int) bool {
	for len(c.placed) <= op.Node {
		c.placed = append(c.placed, nil)
	}
	if c.placed[op.Node] != nil {
		panic(fmt.Sprintf("mrt: node %d placed twice", op.Node))
	}
	s := c.slot(cycle)
	if op.Kind == ddg.OpCopy {
		if !c.probeCopy(op, s) {
			return false
		}
		p := c.newPlacement()
		p.Node, p.Cycle, p.Cluster = op.Node, cycle, op.Cluster
		p.fuUnit, p.occupancy, p.busIndex, p.linkIndex = -1, 0, -1, -1
		p.readPort = bits.TrailingZeros64(c.readAll[op.Cluster] &^ c.readBusy[op.Cluster*c.ii+s])
		c.setRead(op.Cluster, p.readPort, s, int32(op.Node))
		if c.m.Network == machine.Broadcast {
			p.busIndex = bits.TrailingZeros64(c.busAll &^ c.busBusy[s])
			c.setBus(p.busIndex, s, int32(op.Node))
		} else {
			p.linkIndex = int(c.linkTab[op.Cluster*c.nc+op.Targets[0]])
			c.setLink(p.linkIndex, s, int32(op.Node))
		}
		for _, t := range op.Targets {
			w := bits.TrailingZeros64(c.writeAll[t] &^ c.writeBusy[t*c.ii+s])
			c.setWrite(t, w, s, int32(op.Node))
			p.writeSlots = append(p.writeSlots, wSlot{cluster: t, port: w})
		}
		c.placed[op.Node] = p
	} else {
		avail := c.availFU(op.Cluster, op.Kind, s)
		if avail == 0 {
			return false
		}
		u := bits.TrailingZeros64(avail)
		occ := c.occOf[op.Kind]
		for d := 0; d < occ; d++ {
			c.setFU(op.Cluster, u, (s+d)%c.ii, int32(op.Node))
		}
		p := c.newPlacement()
		p.Node, p.Cycle, p.Cluster = op.Node, cycle, op.Cluster
		p.fuUnit, p.occupancy = u, occ
		p.readPort, p.busIndex, p.linkIndex = -1, -1, -1
		c.placed[op.Node] = p
	}
	return true
}

// ReleaseOp releases every slot held by op.Node (only the node matters;
// the other fields are ignored). It reports whether the node was
// placed.
//
//schedvet:alloc-free
func (c *Cycle) ReleaseOp(op Op) bool {
	if op.Node >= len(c.placed) || c.placed[op.Node] == nil {
		return false
	}
	c.unplace(op.Node)
	return true
}

// unplace clears node's busy bits and recycles its placement record.
// Owner entries are left stale; they are never read behind cleared
// bits.
//
//schedvet:alloc-free
func (c *Cycle) unplace(node int) {
	p := c.placed[node]
	s := c.slot(p.Cycle)
	if p.fuUnit >= 0 {
		for d := 0; d < p.occupancy; d++ {
			c.fuBusy[p.Cluster*c.ii+(s+d)%c.ii] &^= 1 << uint(p.fuUnit)
		}
	}
	if p.readPort >= 0 {
		c.readBusy[p.Cluster*c.ii+s] &^= 1 << uint(p.readPort)
	}
	if p.busIndex >= 0 {
		c.busBusy[s] &^= 1 << uint(p.busIndex)
	}
	if p.linkIndex >= 0 {
		c.linkBusy[s] &^= 1 << uint(p.linkIndex)
	}
	for _, w := range p.writeSlots {
		c.writeBusy[w.cluster*c.ii+s] &^= 1 << uint(w.port)
	}
	c.placed[node] = nil
	c.freePl = append(c.freePl, p)
}

// Bit + owner setters -------------------------------------------------------

//schedvet:alloc-free
func (c *Cycle) setFU(cl, u, s int, node int32) {
	c.fuBusy[cl*c.ii+s] |= 1 << uint(u)
	c.owner[(int(c.fuBase[cl])+u)*c.ii+s] = node
}

//schedvet:alloc-free
func (c *Cycle) setRead(cl, port, s int, node int32) {
	c.readBusy[cl*c.ii+s] |= 1 << uint(port)
	c.owner[(int(c.rdBase[cl])+port)*c.ii+s] = node
}

//schedvet:alloc-free
func (c *Cycle) setWrite(cl, port, s int, node int32) {
	c.writeBusy[cl*c.ii+s] |= 1 << uint(port)
	c.owner[(int(c.wrBase[cl])+port)*c.ii+s] = node
}

//schedvet:alloc-free
func (c *Cycle) setBus(b, s int, node int32) {
	c.busBusy[s] |= 1 << uint(b)
	c.owner[(int(c.busBase)+b)*c.ii+s] = node
}

//schedvet:alloc-free
func (c *Cycle) setLink(li, s int, node int32) {
	c.linkBusy[s] |= 1 << uint(li)
	c.owner[(int(c.linkBase)+li)*c.ii+s] = node
}

// newPlacement returns a zeroed placement record, recycling a released
// one (and its writeSlots capacity) when available.
func (c *Cycle) newPlacement() *Placement {
	if n := len(c.freePl); n > 0 {
		p := c.freePl[n-1]
		c.freePl = c.freePl[:n-1]
		p.writeSlots = p.writeSlots[:0]
		return p
	}
	if len(c.arena) == cap(c.arena) {
		c.arena = make([]Placement, 0, 32)
	}
	c.arena = append(c.arena, Placement{})
	return &c.arena[len(c.arena)-1]
}

// Queries -------------------------------------------------------------------

// ConflictsOf appends to buf[:0] the distinct nodes occupying resources
// op would need at the given cycle, in resource order (units, then for
// copies read ports, fabric, write ports per target), and returns the
// extended buffer. Callers pass a reusable buffer to keep eviction
// scans allocation-free. An empty result with ProbeOp false cannot
// happen: some occupant always exists.
//
//schedvet:alloc-free
func (c *Cycle) ConflictsOf(op Op, cycle int, buf []int) []int {
	buf = buf[:0]
	s := c.slot(cycle)
	if op.Kind != ddg.OpCopy {
		occ := c.occOf[op.Kind]
		if occ > c.ii {
			occ = c.ii
		}
		base := op.Cluster * c.ii
		fuBase := int(c.fuBase[op.Cluster])
		for m := c.compat[op.Cluster*ddg.NumOpKinds+int(op.Kind)]; m != 0; m &= m - 1 {
			u := bits.TrailingZeros64(m)
			for d := 0; d < occ; d++ {
				sl := (s + d) % c.ii
				if c.fuBusy[base+sl]&(1<<uint(u)) != 0 {
					if n := int(c.owner[(fuBase+u)*c.ii+sl]); !containsInt(buf, n) {
						buf = append(buf, n)
					}
				}
			}
		}
		return buf
	}
	src := op.Cluster
	rdBase := int(c.rdBase[src])
	for m := c.readBusy[src*c.ii+s] & c.readAll[src]; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		if n := int(c.owner[(rdBase+p)*c.ii+s]); !containsInt(buf, n) {
			buf = append(buf, n)
		}
	}
	if c.m.Network == machine.Broadcast {
		for m := c.busBusy[s] & c.busAll; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if n := int(c.owner[(int(c.busBase)+b)*c.ii+s]); !containsInt(buf, n) {
				buf = append(buf, n)
			}
		}
	} else if len(op.Targets) == 1 {
		if li := c.linkTab[src*c.nc+op.Targets[0]]; li >= 0 && c.linkBusy[s]&(1<<uint(li)) != 0 {
			if n := int(c.owner[(int(c.linkBase)+int(li))*c.ii+s]); !containsInt(buf, n) {
				buf = append(buf, n)
			}
		}
	}
	for _, t := range op.Targets {
		wrBase := int(c.wrBase[t])
		for m := c.writeBusy[t*c.ii+s] & c.writeAll[t]; m != 0; m &= m - 1 {
			p := bits.TrailingZeros64(m)
			if n := int(c.owner[(wrBase+p)*c.ii+s]); !containsInt(buf, n) {
				buf = append(buf, n)
			}
		}
	}
	return buf
}

// containsInt reports whether xs contains v; the conflict lists it
// dedups are at most a handful of entries.
//
//schedvet:alloc-free
func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
