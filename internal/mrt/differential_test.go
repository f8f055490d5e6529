package mrt

import (
	"math/rand"
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

// This file differentially tests the bitset Cycle against slotRef, a
// retained reference implementation using the pre-bitset layout: one
// ragged per-instance slot array per resource, scanned first-free in
// ascending index order. Beyond accept/reject equivalence (which the
// counting model in model_test.go already covers), it checks that the
// bitset table picks the SAME resource instances and reports the SAME
// conflict lists in the SAME order — the properties that make the
// schedulers' output byte-identical across the layout change.

type slotRef struct {
	m    *machine.Config
	ii   int
	fu   [][][]int // [cl][unit][slot] -> node, -1 free
	rd   [][][]int
	wr   [][][]int
	bus  [][]int // [bus][slot]
	link [][]int // [link][slot]
	occ  map[int]*slotRefPl
}

type slotRefPl struct {
	cluster, cycle     int
	unit, occupancy    int
	rdPort, busIdx, li int
	writes             [][2]int // (cluster, port)
}

func newSlotRef(m *machine.Config, ii int) *slotRef {
	r := &slotRef{m: m, ii: ii, occ: map[int]*slotRefPl{}}
	grid := func(n int) [][]int {
		g := make([][]int, n)
		for i := range g {
			g[i] = make([]int, ii)
			for s := range g[i] {
				g[i][s] = -1
			}
		}
		return g
	}
	for cl := range m.Clusters {
		cfg := &m.Clusters[cl]
		r.fu = append(r.fu, grid(len(cfg.FUs)))
		r.rd = append(r.rd, grid(cfg.ReadPorts))
		r.wr = append(r.wr, grid(cfg.WritePorts))
	}
	r.bus = grid(m.Buses)
	r.link = grid(len(m.Links))
	return r
}

func (r *slotRef) slot(cycle int) int {
	s := cycle % r.ii
	if s < 0 {
		s += r.ii
	}
	return s
}

// freeFU returns the first compatible unit free for kind k's occupancy
// window starting at slot s, or -1.
func (r *slotRef) freeFU(cl int, k ddg.OpKind, s int) int {
	occ := r.m.Occupancy(k)
	if occ > r.ii {
		return -1
	}
	for u, fu := range r.m.Clusters[cl].FUs {
		if !fu.CanExecute(k) {
			continue
		}
		ok := true
		for d := 0; d < occ; d++ {
			if r.fu[cl][u][(s+d)%r.ii] >= 0 {
				ok = false
				break
			}
		}
		if ok {
			return u
		}
	}
	return -1
}

func firstFree(rows [][]int, s int) int {
	for i := range rows {
		if rows[i][s] < 0 {
			return i
		}
	}
	return -1
}

func (r *slotRef) canCopy(src int, targets []int, s int) bool {
	if firstFree(r.rd[src], s) < 0 {
		return false
	}
	if r.m.Network == machine.Broadcast {
		if firstFree(r.bus, s) < 0 {
			return false
		}
	} else {
		if len(targets) != 1 {
			return false
		}
		li := r.m.LinkBetween(src, targets[0])
		if li < 0 || r.link[li][s] >= 0 {
			return false
		}
	}
	need := map[int]int{}
	for _, t := range targets {
		need[t]++
	}
	for t, n := range need {
		free := 0
		for _, row := range r.wr[t] {
			if row[s] < 0 {
				free++
			}
		}
		if free < n {
			return false
		}
	}
	return true
}

func (r *slotRef) place(node int, op Op, cycle int) bool {
	s := r.slot(cycle)
	if op.Kind == ddg.OpCopy {
		if !r.canCopy(op.Cluster, op.Targets, s) {
			return false
		}
		p := &slotRefPl{cluster: op.Cluster, cycle: cycle, unit: -1, busIdx: -1, li: -1}
		p.rdPort = firstFree(r.rd[op.Cluster], s)
		r.rd[op.Cluster][p.rdPort][s] = node
		if r.m.Network == machine.Broadcast {
			p.busIdx = firstFree(r.bus, s)
			r.bus[p.busIdx][s] = node
		} else {
			p.li = r.m.LinkBetween(op.Cluster, op.Targets[0])
			r.link[p.li][s] = node
		}
		for _, t := range op.Targets {
			w := firstFree(r.wr[t], s)
			r.wr[t][w][s] = node
			p.writes = append(p.writes, [2]int{t, w})
		}
		r.occ[node] = p
		return true
	}
	u := r.freeFU(op.Cluster, op.Kind, s)
	if u < 0 {
		return false
	}
	occ := r.m.Occupancy(op.Kind)
	for d := 0; d < occ; d++ {
		r.fu[op.Cluster][u][(s+d)%r.ii] = node
	}
	r.occ[node] = &slotRefPl{cluster: op.Cluster, cycle: cycle, unit: u, occupancy: occ, rdPort: -1, busIdx: -1, li: -1}
	return true
}

func (r *slotRef) unplace(node int) bool {
	p, ok := r.occ[node]
	if !ok {
		return false
	}
	delete(r.occ, node)
	s := r.slot(p.cycle)
	if p.unit >= 0 {
		for d := 0; d < p.occupancy; d++ {
			r.fu[p.cluster][p.unit][(s+d)%r.ii] = -1
		}
	}
	if p.rdPort >= 0 {
		r.rd[p.cluster][p.rdPort][s] = -1
	}
	if p.busIdx >= 0 {
		r.bus[p.busIdx][s] = -1
	}
	if p.li >= 0 {
		r.link[p.li][s] = -1
	}
	for _, w := range p.writes {
		r.wr[w[0]][w[1]][s] = -1
	}
	return true
}

// conflicts reproduces the documented ConflictsOf enumeration order:
// compatible units ascending (window slots inner), then for copies read
// ports, fabric, write ports per target — deduplicated.
func (r *slotRef) conflicts(op Op, cycle int) []int {
	var out []int
	add := func(n int) {
		if n >= 0 && !containsInt(out, n) {
			out = append(out, n)
		}
	}
	s := r.slot(cycle)
	if op.Kind != ddg.OpCopy {
		occ := r.m.Occupancy(op.Kind)
		if occ > r.ii {
			occ = r.ii
		}
		for u, fu := range r.m.Clusters[op.Cluster].FUs {
			if !fu.CanExecute(op.Kind) {
				continue
			}
			for d := 0; d < occ; d++ {
				add(r.fu[op.Cluster][u][(s+d)%r.ii])
			}
		}
		return out
	}
	for _, row := range r.rd[op.Cluster] {
		add(row[s])
	}
	if r.m.Network == machine.Broadcast {
		for _, row := range r.bus {
			add(row[s])
		}
	} else if len(op.Targets) == 1 {
		if li := r.m.LinkBetween(op.Cluster, op.Targets[0]); li >= 0 {
			add(r.link[li][s])
		}
	}
	for _, t := range op.Targets {
		for _, row := range r.wr[t] {
			add(row[s])
		}
	}
	return out
}

// checkAgainst compares the bitset table's full occupancy and row
// attribution against the reference.
func (r *slotRef) checkAgainst(t *testing.T, c *Cycle) {
	t.Helper()
	for cl := range r.m.Clusters {
		for u := range r.fu[cl] {
			for s := 0; s < r.ii; s++ {
				want := r.fu[cl][u][s]
				busy := c.fuBusy[cl*c.ii+s]&(1<<uint(u)) != 0
				if busy != (want >= 0) {
					t.Fatalf("fu[%d][%d][%d] busy=%v, ref owner %d", cl, u, s, busy, want)
				}
				if busy && int(c.owner[(int(c.fuBase[cl])+u)*c.ii+s]) != want {
					t.Fatalf("fu[%d][%d][%d] owner mismatch", cl, u, s)
				}
			}
		}
	}
	for node, p := range r.occ {
		cp := placementOf(c, node)
		if cp == nil {
			t.Fatalf("node %d placed in ref, missing in bitset table", node)
		}
		if cp.fuUnit != p.unit || cp.readPort != p.rdPort || cp.busIndex != p.busIdx || cp.linkIndex != p.li {
			t.Fatalf("node %d rows: bitset {fu %d rd %d bus %d link %d}, ref {%d %d %d %d}",
				node, cp.fuUnit, cp.readPort, cp.busIndex, cp.linkIndex, p.unit, p.rdPort, p.busIdx, p.li)
		}
		for i, w := range p.writes {
			if c := cp.writeSlots[i]; c.cluster != w[0] || c.port != w[1] {
				t.Fatalf("node %d write slot %d mismatch", node, i)
			}
		}
	}
}

func TestCycleMatchesSlotLoopReference(t *testing.T) {
	machines := []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedFS(2, 1, 2),
		machine.NewGrid4(1),
		func() *machine.Config {
			m := machine.NewBusedFS(3, 2, 2)
			m.NonPipelined[ddg.OpFDiv] = true
			return m
		}(),
	}
	kinds := []ddg.OpKind{ddg.OpALU, ddg.OpLoad, ddg.OpFMul, ddg.OpStore, ddg.OpBranch, ddg.OpFDiv}

	for mi, m := range machines {
		for _, ii := range []int{1, 2, 5, 9} {
			rng := rand.New(rand.NewSource(int64(mi*100 + ii)))
			table := NewCycle(m, ii)
			ref := newSlotRef(m, ii)
			next := 0
			var placed []int

			for step := 0; step < 400; step++ {
				roll := rng.Float64()
				switch {
				case len(placed) > 0 && roll < 0.3:
					i := rng.Intn(len(placed))
					n := placed[i]
					if got, want := table.ReleaseOp(Op{Node: n}), ref.unplace(n); got != want {
						t.Fatalf("m%d ii%d step %d: ReleaseOp(%d)=%v ref %v", mi, ii, step, n, got, want)
					}
					placed = append(placed[:i], placed[i+1:]...)
				default:
					var op Op
					if roll < 0.65 {
						op = OpAt(next, rng.Intn(m.NumClusters()), kinds[rng.Intn(len(kinds))])
					} else {
						src := rng.Intn(m.NumClusters())
						var targets []int
						if m.Network == machine.Broadcast {
							for cl := 0; cl < m.NumClusters(); cl++ {
								if cl != src && rng.Float64() < 0.5 {
									targets = append(targets, cl)
								}
							}
							if len(targets) == 0 {
								targets = []int{(src + 1) % m.NumClusters()}
							}
						} else {
							targets = []int{rng.Intn(m.NumClusters())} // may be non-adjacent: both must reject
						}
						op = CopyAt(next, src, targets)
					}
					cycle := rng.Intn(3*ii) - ii
					if got, want := table.ProbeOp(op, cycle), ref.place(-2, op, cycle); got != want {
						t.Fatalf("m%d ii%d step %d: ProbeOp(%+v,%d)=%v ref %v", mi, ii, step, op, cycle, got, want)
					} else if want {
						ref.unplace(-2) // probe only
					}
					gotC := table.ConflictsOf(op, cycle, nil)
					wantC := ref.conflicts(op, cycle)
					if len(gotC) != len(wantC) {
						t.Fatalf("m%d ii%d step %d: conflicts %v, ref %v", mi, ii, step, gotC, wantC)
					}
					for i := range gotC {
						if gotC[i] != wantC[i] {
							t.Fatalf("m%d ii%d step %d: conflict order %v, ref %v", mi, ii, step, gotC, wantC)
						}
					}
					if table.ProbeOp(op, cycle) {
						if !table.CommitOp(op, cycle) || !ref.place(next, op, cycle) {
							t.Fatalf("m%d ii%d step %d: commit diverged after probe true", mi, ii, step)
						}
						placed = append(placed, next)
						next++
					}
				}
				if step%40 == 0 {
					ref.checkAgainst(t, table)
				}
			}
			ref.checkAgainst(t, table)
		}
	}
}
