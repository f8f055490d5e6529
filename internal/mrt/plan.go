package mrt

import (
	"sync"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

// plan holds the structural, II-invariant tables both fidelities derive
// from a machine description: the Capacity charge plan (classOf/occOf
// plus link topology) and the Cycle bitset geometry (compatibility
// masks, instance masks, owner-row bases). Deriving them walks every
// cluster's unit list per operation kind and the link list per cluster
// pair — work that is identical for every table of the same machine —
// so plans are built once per Config and shared. All slices are
// read-only after construction.
type plan struct {
	// Capacity charge plan.
	classOf []int8  // [cl*NumOpKinds+k] -> FU class charged, or -1
	occOf   []int   // [k] -> function-unit occupancy (slot-cycles)
	fuCnt   []int   // [cl*numFU+class] -> unit count
	linkTab []int   // [src*nc+dst] -> link index, or -1
	linksAt [][]int // [cl] -> incident link indices

	// Cycle bitset geometry.
	compat    []uint64 // [cl*NumOpKinds+k] -> mask of units that can run k
	linkTab32 []int32  // [src*nc+dst] -> link index, or -1
	fuAll     []uint64 // [cl] -> mask of all units
	readAll   []uint64 // [cl] -> mask of all read ports
	writeAll  []uint64 // [cl] -> mask of all write ports
	busAll    uint64
	linkAll   uint64
	fuBase    []int32 // [cl] -> global owner-row base of the cluster's units
	rdBase    []int32
	wrBase    []int32
	busBase   int32
	linkBase  int32
	rows      int // total owner rows
}

// planCache memoizes planOf per Config. Bounded like the machine
// topology cache: when full it is dropped wholesale, so sweeps over
// generated configurations cannot pin memory forever.
var planCache struct {
	sync.Mutex
	m map[*machine.Config]*plan
}

const planCacheLimit = 128

// planOf returns the structural plan of m, derived on first use and
// cached by configuration identity. The configuration must not be
// mutated after the first table is built on it.
func planOf(m *machine.Config) *plan {
	planCache.Lock()
	if p, ok := planCache.m[m]; ok {
		planCache.Unlock()
		return p
	}
	planCache.Unlock()

	p := buildPlan(m)

	planCache.Lock()
	if len(planCache.m) >= planCacheLimit {
		planCache.m = nil
	}
	if planCache.m == nil {
		planCache.m = make(map[*machine.Config]*plan, planCacheLimit)
	}
	planCache.m[m] = p
	planCache.Unlock()
	return p
}

func buildPlan(m *machine.Config) *plan {
	nc := m.NumClusters()
	p := &plan{}

	p.occOf = make([]int, ddg.NumOpKinds)
	for k := 0; k < ddg.NumOpKinds; k++ {
		p.occOf[k] = m.Occupancy(ddg.OpKind(k))
	}

	// Charge plan: resolve (cluster, kind) to the charged FU class once.
	// The specialized class wins when the cluster has such units,
	// otherwise the general-purpose pool when it can execute the kind.
	p.classOf = make([]int8, nc*ddg.NumOpKinds)
	p.fuCnt = make([]int, nc*numFU)
	p.compat = make([]uint64, nc*ddg.NumOpKinds)
	p.fuAll = make([]uint64, nc)
	p.readAll = make([]uint64, nc)
	p.writeAll = make([]uint64, nc)
	p.fuBase = make([]int32, nc)
	p.rdBase = make([]int32, nc)
	p.wrBase = make([]int32, nc)
	var count [numFU]int
	rows := 0
	for cl := 0; cl < nc; cl++ {
		cfg := &m.Clusters[cl]
		for i := range count {
			count[i] = 0
		}
		for u, fu := range cfg.FUs {
			count[fu]++
			for k := 0; k < ddg.NumOpKinds; k++ {
				if fu.CanExecute(ddg.OpKind(k)) {
					p.compat[cl*ddg.NumOpKinds+k] |= 1 << uint(u)
				}
			}
		}
		copy(p.fuCnt[cl*numFU:(cl+1)*numFU], count[:])
		for k := 0; k < ddg.NumOpKinds; k++ {
			kind := ddg.OpKind(k)
			cls := int8(-1)
			if want := machine.RequiredClass(kind); count[want] > 0 {
				cls = int8(want)
			} else if count[machine.FUGeneral] > 0 && machine.FUGeneral.CanExecute(kind) {
				cls = int8(machine.FUGeneral)
			}
			p.classOf[cl*ddg.NumOpKinds+k] = cls
		}
		p.fuAll[cl] = allMask(len(cfg.FUs))
		p.readAll[cl] = allMask(cfg.ReadPorts)
		p.writeAll[cl] = allMask(cfg.WritePorts)
		p.fuBase[cl] = int32(rows)
		rows += len(cfg.FUs)
		p.rdBase[cl] = int32(rows)
		rows += cfg.ReadPorts
		p.wrBase[cl] = int32(rows)
		rows += cfg.WritePorts
	}
	p.busAll = allMask(m.Buses)
	p.linkAll = allMask(len(m.Links))
	p.busBase = int32(rows)
	rows += m.Buses
	p.linkBase = int32(rows)
	rows += len(m.Links)
	p.rows = rows

	p.linkTab = make([]int, nc*nc)
	p.linkTab32 = make([]int32, nc*nc)
	p.linksAt = make([][]int, nc)
	for i := 0; i < nc; i++ {
		p.linksAt[i] = m.LinksAt(i)
		for j := 0; j < nc; j++ {
			li := m.LinkBetween(i, j)
			p.linkTab[i*nc+j] = li
			p.linkTab32[i*nc+j] = int32(li)
		}
	}
	return p
}
