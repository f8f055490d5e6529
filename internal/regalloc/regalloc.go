// Package regalloc analyses and allocates the registers of a modulo
// schedule, the concern that motivates clustering in the first place:
// each cluster's register file only has to hold the values produced on
// that cluster. It implements:
//
//   - value lifetimes of the steady-state kernel;
//   - the modulo-variable-expansion factor (Lam, PLDI 1988): the
//     kernel unroll needed on machines without rotating register
//     files, because a value whose lifetime exceeds II would be
//     overwritten by the next iteration's instance;
//   - an MVE register allocator: the kernel is unrolled by that
//     factor and the per-iteration value instances are colored as
//     circular arcs on the unrolled kernel, giving a valid register
//     binding and per-cluster register counts.
package regalloc

import (
	"fmt"
	"sort"

	"clustersched/internal/ddg"
	"clustersched/internal/sched"
)

// Lifetime is the register occupancy of one value of the kernel.
type Lifetime struct {
	Value   int // producing node
	Cluster int // register file holding the value
	Start   int // first cycle the value exists (def + latency)
	Len     int // cycles until after the last use (>= 1 for produced values)
}

// producesValue reports whether a node kind defines a register.
func producesValue(k ddg.OpKind) bool {
	return k != ddg.OpStore && k != ddg.OpBranch
}

// Lifetimes computes every value lifetime of the schedule. Values with
// no consumers still occupy their register for one cycle. A copy's
// result physically lands in each *target* cluster's register file (a
// broadcast copy with several targets writes several files), so a copy
// yields one lifetime per target cluster, each ending at the last use
// by that cluster's consumers.
func Lifetimes(in sched.Input, s *sched.Schedule) []Lifetime {
	g := in.Graph
	lat := in.Machine.Latency
	out := make([]Lifetime, 0, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		if !producesValue(g.Nodes[v].Kind) {
			continue
		}
		start := s.CycleOf[v] + lat(g.Nodes[v].Kind)
		if g.Nodes[v].Kind == ddg.OpCopy && in.CopyTargets != nil {
			for _, target := range in.CopyTargets[v] {
				end := start + 1
				for _, e := range g.OutEdges(v) {
					if clusterOf(in, e.To) != target {
						continue
					}
					if use := s.CycleOf[e.To] + s.II*e.Distance + 1; use > end {
						end = use
					}
				}
				out = append(out, Lifetime{Value: v, Cluster: target, Start: start, Len: end - start})
			}
			continue
		}
		end := start + 1
		for _, e := range g.OutEdges(v) {
			if use := s.CycleOf[e.To] + s.II*e.Distance + 1; use > end {
				end = use
			}
		}
		out = append(out, Lifetime{Value: v, Cluster: clusterOf(in, v), Start: start, Len: end - start})
	}
	return out
}

func clusterOf(in sched.Input, n int) int {
	if in.ClusterOf == nil {
		return 0
	}
	return in.ClusterOf[n]
}

// MVEFactor returns the kernel unroll factor modulo variable expansion
// needs: the maximum ceil(lifetime/II) over all values. A factor of 1
// means no value outlives its iteration's slot and the plain kernel is
// safe even without rotating registers.
func MVEFactor(in sched.Input, s *sched.Schedule) int {
	return mveFactor(Lifetimes(in, s), s.II)
}

func mveFactor(ls []Lifetime, ii int) int {
	factor := 1
	for _, l := range ls {
		if f := (l.Len + ii - 1) / ii; f > factor {
			factor = f
		}
	}
	return factor
}

// LowerBound returns Rau's averaged lower bound on register need:
// ceil(sum of lifetimes / II), machine-wide and per cluster.
func LowerBound(in sched.Input, s *sched.Schedule) (total int, perCluster []int) {
	perSum := make([]int, in.Machine.NumClusters())
	sum := 0
	for _, l := range Lifetimes(in, s) {
		sum += l.Len
		perSum[l.Cluster] += l.Len
	}
	perCluster = make([]int, len(perSum))
	for i, v := range perSum {
		perCluster[i] = (v + s.II - 1) / s.II
	}
	return (sum + s.II - 1) / s.II, perCluster
}

// Binding is one value instance's register assignment: in an
// MVE-unrolled kernel each of the Factor unrolled iterations writes
// the value into its own register.
type Binding struct {
	Lifetime
	Instance int // which unrolled copy (0..Factor-1)
	Register int // register index within the cluster's file
}

// Allocation is a complete MVE register allocation.
type Allocation struct {
	Factor         int // kernel unroll factor
	RegsPerCluster []int
	Bindings       []Binding
}

// TotalRegisters sums the per-cluster register files.
func (a *Allocation) TotalRegisters() int {
	t := 0
	for _, r := range a.RegsPerCluster {
		t += r
	}
	return t
}

// AllocateMVE unrolls the kernel by the MVE factor and colors each
// cluster's value instances as circular arcs over the unrolled kernel
// length (first-fit, longest arcs first). The result is a valid
// register binding: no two arcs sharing a register overlap on the
// circle, which Validate re-checks independently.
//
// Every binding lives in one slab, partitioned by cluster with a
// counting pass, so each cluster's arcs are a contiguous run of the
// returned Bindings; a register's arcs are an index-linked list
// through that slab.
func AllocateMVE(in sched.Input, s *sched.Schedule) *Allocation {
	ls := Lifetimes(in, s)
	factor := mveFactor(ls, s.II)
	circle := factor * s.II
	nc := in.Machine.NumClusters()
	alloc := &Allocation{Factor: factor, RegsPerCluster: make([]int, nc)}
	if len(ls) == 0 {
		return alloc
	}

	// end[cl] is first the cluster's binding count, then (after the
	// prefix sum) the end of its run in the slab; fill[cl] is the
	// cluster's next free slot during the fill.
	bounds := make([]int, 2*nc)
	end, fill := bounds[:nc], bounds[nc:]
	for _, l := range ls {
		end[l.Cluster] += factor
	}
	for cl := 1; cl < nc; cl++ {
		end[cl] += end[cl-1]
		fill[cl] = end[cl-1]
	}
	// start[k] caches slab[k]'s arc start; next[k] links slab[k] to the
	// previously placed arc of its register and head[r] is register r's
	// most recent arc (-1 terminates both). A cluster never needs more
	// registers than it has arcs, so head fits in the same block.
	n := len(ls) * factor
	slab := make([]Binding, n)
	idx := make([]int, 3*n)
	start, next, head := idx[:n], idx[n:2*n], idx[2*n:2*n]
	for _, l := range ls {
		for i := 0; i < factor; i++ {
			k := fill[l.Cluster]
			slab[k] = Binding{Lifetime: l, Instance: i, Register: -1}
			start[k] = slab[k].arcStart(s.II, circle)
			fill[l.Cluster]++
		}
	}

	order := &arcOrder{}
	lo := 0
	for cl := 0; cl < nc; cl++ {
		order.arcs, order.start = slab[lo:end[cl]], start[lo:end[cl]]
		sort.Sort(order)
		head = head[:0]
		for k := lo; k < end[cl]; k++ {
			r := 0
			for ; r < len(head); r++ {
				if fitsLinked(k, head[r], slab, start, next, circle) {
					break
				}
			}
			if r == len(head) {
				head = append(head, -1)
			}
			slab[k].Register = r
			next[k] = head[r]
			head[r] = k
		}
		alloc.RegsPerCluster[cl] = len(head)
		lo = end[cl]
	}
	alloc.Bindings = slab
	return alloc
}

// arcOrder sorts one cluster's arcs for first-fit coloring, carrying
// their cached arc starts along: longest first, then earliest start,
// then value ID and instance — a total order, stable and effective for
// first-fit circular coloring.
type arcOrder struct {
	arcs  []Binding
	start []int
}

func (o *arcOrder) Len() int { return len(o.arcs) }

func (o *arcOrder) Less(i, j int) bool {
	a, b := &o.arcs[i], &o.arcs[j]
	if a.Len != b.Len {
		return a.Len > b.Len
	}
	if o.start[i] != o.start[j] {
		return o.start[i] < o.start[j]
	}
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.Instance < b.Instance
}

func (o *arcOrder) Swap(i, j int) {
	o.arcs[i], o.arcs[j] = o.arcs[j], o.arcs[i]
	o.start[i], o.start[j] = o.start[j], o.start[i]
}

// fitsLinked reports whether arc k overlaps none of the arcs on the
// register list starting at slab index h.
func fitsLinked(k, h int, slab []Binding, start, next []int, circle int) bool {
	for ; h >= 0; h = next[h] {
		if arcsOverlap(start[k], slab[k].Len, start[h], slab[h].Len, circle) {
			return false
		}
	}
	return true
}

// arcStart is where the instance's lifetime begins on the circle.
func (b Binding) arcStart(ii, circle int) int {
	s := (b.Start + b.Instance*ii) % circle
	if s < 0 {
		s += circle
	}
	return s
}

// arcsOverlap tests two circular arcs (start, length) on a circle.
func arcsOverlap(s1, l1, s2, l2, circle int) bool {
	d12 := (s2 - s1) % circle
	if d12 < 0 {
		d12 += circle
	}
	d21 := (s1 - s2) % circle
	if d21 < 0 {
		d21 += circle
	}
	return d12 < l1 || d21 < l2
}

// Validate independently re-checks the allocation: every value
// instance bound, bindings within the machine's clusters and their
// register counts, and no same-register overlap.
//
// The check recomputes every arc from the bindings. It buckets the
// bindings by (cluster, register) with a counting sort into one int32
// slab, each cluster's buckets starting at the prefix sum of the
// register counts before it, and checks each bucket's pairs in
// (cluster, register) order, so a double-booking report always names
// the lowest such register.
func (a *Allocation) Validate(in sched.Input, s *sched.Schedule) error {
	circle := a.Factor * s.II
	wantInstances := lifetimeCount(in) * a.Factor
	if len(a.Bindings) != wantInstances {
		return fmt.Errorf("regalloc: %d bindings for %d value instances", len(a.Bindings), wantInstances)
	}
	nc, buckets := len(a.RegsPerCluster), 0
	for _, r := range a.RegsPerCluster {
		buckets += max(r, 0)
	}
	// base[cl] is cluster cl's first bucket; bucket k's bindings are
	// order[start[k]:start[k+1]], in binding order.
	slab := make([]int32, nc+buckets+1+len(a.Bindings))
	base, start, order := slab[:nc], slab[nc:nc+buckets+1], slab[nc+buckets+1:]
	for cl := 1; cl < nc; cl++ {
		base[cl] = base[cl-1] + int32(max(a.RegsPerCluster[cl-1], 0))
	}
	for _, b := range a.Bindings {
		if b.Cluster < 0 || b.Cluster >= nc {
			return fmt.Errorf("regalloc: value %d instance %d cluster %d out of range", b.Value, b.Instance, b.Cluster)
		}
		if b.Register < 0 || b.Register >= a.RegsPerCluster[b.Cluster] {
			return fmt.Errorf("regalloc: value %d instance %d register %d out of range", b.Value, b.Instance, b.Register)
		}
		start[base[b.Cluster]+int32(b.Register)+1]++
	}
	for k := 1; k <= buckets; k++ {
		start[k] += start[k-1]
	}
	for i, b := range a.Bindings {
		k := base[b.Cluster] + int32(b.Register)
		order[start[k]] = int32(i)
		start[k]++
	}
	copy(start[1:], start[:buckets])
	start[0] = 0

	for cl := 0; cl < nc; cl++ {
		for r := 0; r < a.RegsPerCluster[cl]; r++ {
			k := base[cl] + int32(r)
			arcs := order[start[k]:start[k+1]]
			for i, bi := range arcs {
				x := &a.Bindings[bi]
				xs := x.arcStart(s.II, circle)
				for _, bj := range arcs[i+1:] {
					y := &a.Bindings[bj]
					if arcsOverlap(xs, x.Len, y.arcStart(s.II, circle), y.Len, circle) {
						return fmt.Errorf("regalloc: cluster %d register %d double-booked by values %d/%d and %d/%d",
							cl, r, x.Value, x.Instance, y.Value, y.Instance)
					}
				}
			}
		}
	}
	return nil
}

// lifetimeCount is len(Lifetimes(in, s)), counted without building
// the lifetimes: one per value-producing node, and one per target
// cluster for a copy.
func lifetimeCount(in sched.Input) int {
	n := 0
	for v, node := range in.Graph.Nodes {
		switch {
		case !producesValue(node.Kind):
		case node.Kind == ddg.OpCopy && in.CopyTargets != nil:
			n += len(in.CopyTargets[v])
		default:
			n++
		}
	}
	return n
}
