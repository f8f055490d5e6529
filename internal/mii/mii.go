// Package mii computes the minimum initiation interval bounds of a
// loop: ResMII from resource capacity and RecMII from the critical
// recurrence cycle, as defined in Section 3 of the paper.
package mii

import (
	"clustersched/internal/ddg"
	"clustersched/internal/machine"
	"clustersched/internal/obs"
)

// ResMII returns the resource-constrained lower bound: the tightest
// ratio of operation slot-cycle demand to function-unit count over all
// resource classes of the whole machine (an operation demands one
// slot-cycle on pipelined units, its full latency on non-pipelined
// ones, and a non-pipelined operation alone bounds II by its
// occupancy). Operations are charged to their specialized class when
// the machine has such units, otherwise to the general-purpose pool;
// copies use no function unit and are excluded.
//
//schedvet:test-api the package-level bound the frontend and paper-example tests check
func ResMII(g *ddg.Graph, m *machine.Config) int {
	return resMIIWith(g, m, unitTotalsOf(m), make([]int, machine.NumFUClasses))
}

// unitTotalsOf counts the machine's function units per class, the only
// machine-dependent input of ResMII.
func unitTotalsOf(m *machine.Config) []int {
	unitTotals := make([]int, machine.NumFUClasses)
	for i := range m.Clusters {
		for _, fu := range m.Clusters[i].FUs {
			unitTotals[fu]++
		}
	}
	return unitTotals
}

// resMIIWith is ResMII against precomputed unit totals, with a
// caller-supplied per-class charge buffer (length
// machine.NumFUClasses), which it zeroes and overwrites.
//
//schedvet:alloc-free
func resMIIWith(g *ddg.Graph, m *machine.Config, unitTotals, charged []int) int {
	counts := g.KindCounts()
	for i := range charged {
		charged[i] = 0
	}
	res := 1
	for k := 0; k < ddg.NumOpKinds; k++ {
		kind := ddg.OpKind(k)
		if kind == ddg.OpCopy || counts[k] == 0 {
			continue
		}
		cls := machine.RequiredClass(kind)
		if unitTotals[cls] == 0 {
			cls = machine.FUGeneral
		}
		occ := m.Occupancy(kind)
		charged[cls] += counts[k] * occ
		// A non-pipelined unit repeats its busy window every iteration:
		// one such operation alone forces II >= its occupancy.
		if occ > res {
			res = occ
		}
	}
	for cls := 0; cls < machine.NumFUClasses; cls++ {
		if charged[cls] == 0 {
			continue
		}
		if unitTotals[cls] == 0 {
			// Validate guarantees this cannot happen for executable
			// graphs; treat as unbounded pressure.
			return 1 << 20
		}
		if ii := ceilDiv(charged[cls], unitTotals[cls]); ii > res {
			res = ii
		}
	}
	return res
}

// RecMII returns the recurrence-constrained lower bound: the maximum
// over all dependence cycles of ceil(total latency / total distance),
// 1 for a graph without recurrences. Every dependence cycle lies
// wholly inside one strongly connected component, so the bound is the
// maximum of the per-component vector RecScratch.SCCRecMIIs computes.
//
//schedvet:test-api the package-level bound the frontend, livermore and paper-example tests check
func RecMII(g *ddg.Graph, lat ddg.LatencyFunc) int {
	var rs RecScratch
	recs, _ := rs.SCCRecMIIs(g, lat, nil)
	return maxRec(recs)
}

// maxRec is the recurrence bound of a per-component vector: its
// maximum, 1 when it is empty.
//
//schedvet:alloc-free
func maxRec(recs []int) int {
	rec := 1
	for _, r := range recs {
		if r > rec {
			rec = r
		}
	}
	return rec
}

// RecScratch holds the reusable buffers of the recurrence-bound
// computations — the per-component RecMII vector, the component-local
// graph and policy state of the cycle-ratio solver, and ResMII's
// per-class charge counters — so a session computing bounds for many
// loops stops allocating per loop. The zero value is ready to use;
// results returned from its methods alias the scratch and stay valid
// until the next call. A RecScratch is single-threaded.
type RecScratch struct {
	recs    []int
	charged []int

	// local maps a graph node to its index in the component being
	// solved (stale for every other node). The component's edges are a
	// CSR over local indices: node i's run is to/dist[off[i]:off[i+1]],
	// and w holds each node's latency.
	local []int32
	off   []int32
	to    []int32
	dist  []int
	w     []int

	// Policy iteration state, per local node: the chosen out-edge, the
	// reduced cycle ratio p/q the policy reaches, and the value x
	// scaled by q. state and path are the walk's marks and stack.
	pol   []int32
	p, q  []int
	x     []int
	state []uint8
	path  []int32

	// slab32 and slab back the per-node buffers above, sized for the
	// whole graph, which bounds every component.
	slab32 []int32
	slab   []int
}

// SCCRecMIIs returns the RecMII of every component of
// g.NonTrivialSCCs(), in that order: the smallest II >= 1 at which no
// cycle of the component has positive total weight latency(from) -
// II*distance. Each component is solved exactly by Howard's policy
// iteration for the maximum cycle ratio, in integer arithmetic.
// Latencies must be non-negative, as machine lint guarantees; a
// component with a distance-0 cycle, which Validate rejects, has no
// feasible II and reports one more than its total latency.
//
// tr is polled once per policy iteration; when it is canceled the
// computation stops early and reports ok false, with the components
// not yet solved left at 1. The returned slice aliases the scratch.
func (rs *RecScratch) SCCRecMIIs(g *ddg.Graph, lat ddg.LatencyFunc, tr *obs.Trace) (recs []int, ok bool) {
	comps := g.NonTrivialSCCs()
	rs.recs = growInts(rs.recs, len(comps))
	for i := range rs.recs {
		rs.recs[i] = 1
	}
	if len(comps) == 0 {
		return rs.recs, true
	}
	n := g.NumNodes()
	rs.slab32 = growInt32s(rs.slab32, 4*n+1)
	rs.local, rs.off = rs.slab32[:n:n], rs.slab32[n:2*n+1:2*n+1]
	rs.pol, rs.path = rs.slab32[2*n+1:3*n+1:3*n+1], rs.slab32[3*n+1:3*n+1:4*n+1]
	rs.slab = growInts(rs.slab, 4*n)
	rs.w, rs.p = rs.slab[:n:n], rs.slab[n:2*n:2*n]
	rs.q, rs.x = rs.slab[2*n:3*n:3*n], rs.slab[3*n:4*n:4*n]
	rs.state = growBytes(rs.state, n)
	if m := len(g.Edges); cap(rs.to) < m {
		rs.to, rs.dist = make([]int32, 0, m), make([]int, 0, m)
	}
	for i, c := range comps {
		r, ok := rs.sccRecMII(g, c.Nodes, lat, tr)
		if !ok {
			return rs.recs, false
		}
		rs.recs[i] = r
	}
	return rs.recs, true
}

// growInts returns buf resized to n, reallocating only on growth.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// growInt32s is growInts for int32 buffers.
func growInt32s(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// sccRecMII solves one component (comp, sorted node IDs).
func (rs *RecScratch) sccRecMII(g *ddg.Graph, comp []int, lat ddg.LatencyFunc, tr *obs.Trace) (int, bool) {
	n := len(comp)
	sum := 0
	for i, v := range comp {
		rs.local[v] = int32(i)
		rs.w[i] = lat(g.Nodes[v].Kind)
		sum += rs.w[i]
	}
	// A cycle's latency is at most sum, so a cycle through an edge of
	// distance beyond sum has ratio below 1 whatever the exact distance:
	// clamping to sum+1 keeps every ceiling and bounds the arithmetic.
	limit := sum + 1
	rs.to, rs.dist = rs.to[:0], rs.dist[:0]
	for i, v := range comp {
		rs.off[i] = int32(len(rs.to))
		for _, e := range g.OutEdges(v) {
			j := rs.local[e.To]
			if int(j) >= n || comp[j] != e.To {
				continue // leaves the component: on no cycle
			}
			d := e.Distance
			if limit > 0 && d > limit {
				d = limit
			}
			rs.to = append(rs.to, j)
			rs.dist = append(rs.dist, d)
		}
	}
	rs.off[n] = int32(len(rs.to))
	if rs.zeroDistanceCycle(n) {
		if limit < 1 {
			return 1, true
		}
		return limit, true
	}

	// Start from each node's out-edge of least distance, the locally
	// best ratio, then alternate value determination and improvement
	// until the policy is optimal.
	for u := 0; u < n; u++ {
		best := rs.off[u]
		for j := best + 1; j < rs.off[u+1]; j++ {
			if rs.dist[j] < rs.dist[best] {
				best = j
			}
		}
		rs.pol[u] = best
	}
	for {
		if tr.Canceled() {
			return 0, false
		}
		rs.evaluate(n)
		if !rs.improve(n) {
			break
		}
	}
	// An optimal policy on a strongly connected graph reaches the
	// maximum ratio from every node.
	if p, q := rs.p[0], rs.q[0]; p > q {
		return (p + q - 1) / q, true
	}
	return 1, true
}

// growBytes returns buf resized to n, reallocating only on growth.
func growBytes(buf []uint8, n int) []uint8 {
	if cap(buf) < n {
		return make([]uint8, n)
	}
	return buf[:n]
}

// zeroDistanceCycle reports whether the component's distance-0 edges
// close a cycle, by peeling sources (Kahn) with rs.path as the queue
// and rs.x as the in-degree counters.
//
//schedvet:alloc-free
func (rs *RecScratch) zeroDistanceCycle(n int) bool {
	indeg := rs.x[:n]
	for i := range indeg {
		indeg[i] = 0
	}
	for j, d := range rs.dist {
		if d == 0 {
			indeg[rs.to[j]]++
		}
	}
	queue := rs.path[:0]
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, int32(u))
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for j := rs.off[u]; j < rs.off[u+1]; j++ {
			if rs.dist[j] != 0 {
				continue
			}
			v := rs.to[j]
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	rs.path = queue
	return len(queue) < n
}

// evaluate is the value-determination step: every node of the policy
// graph (one out-edge each) walks to the cycle it ends on. A cycle's
// ratio is reduced to lowest terms p/q, so equal ratios compare equal
// component-wise, and its smallest node is the handle with value 0;
// every other value, scaled by q, is x(u) = q*w(u) - p*dist + x(next).
// Fixing the handle this way keeps the values of a cycle that survives
// an improvement step unchanged, which is what makes the iteration
// terminate.
//
//schedvet:alloc-free
func (rs *RecScratch) evaluate(n int) {
	const (
		unseen = iota
		onPath
		valued
	)
	state := rs.state[:n]
	for i := range state {
		state[i] = unseen
	}
	path := rs.path
	for s := 0; s < n; s++ {
		if state[s] != unseen {
			continue
		}
		path = path[:0]
		v := int32(s)
		for state[v] == unseen {
			state[v] = onPath
			path = append(path, v)
			v = rs.to[rs.pol[v]]
		}
		if state[v] == onPath {
			// The walk closed a new cycle: path[k:], starting at v.
			k := len(path) - 1
			for path[k] != v {
				k--
			}
			cyc := path[k:]
			p, q, h := 0, 0, 0
			for i, c := range cyc {
				p += rs.w[c]
				q += rs.dist[rs.pol[c]]
				if c < cyc[h] {
					h = i
				}
			}
			if d := gcd(p, q); d > 1 {
				p, q = p/d, q/d
			}
			m := len(cyc)
			rs.x[cyc[h]] = 0
			for i := m - 1; i >= 1; i-- {
				c, next := cyc[(h+i)%m], cyc[(h+i+1)%m]
				rs.x[c] = q*rs.w[c] - p*rs.dist[rs.pol[c]] + rs.x[next]
			}
			for _, c := range cyc {
				rs.p[c], rs.q[c] = p, q
				state[c] = valued
			}
			path = path[:k]
		}
		// The walk ended at a valued node: value the path back to front.
		for i := len(path) - 1; i >= 0; i-- {
			u := path[i]
			j := rs.pol[u]
			next := rs.to[j]
			p, q := rs.p[next], rs.q[next]
			rs.p[u], rs.q[u] = p, q
			rs.x[u] = q*rs.w[u] - p*rs.dist[j] + rs.x[next]
			state[u] = valued
		}
	}
	rs.path = path
}

// improve is the policy-improvement step. A node first switches to the
// out-edge reaching the largest ratio when that beats its own; only
// when no node can do so does a node switch, among edges reaching its
// own ratio, to the one giving the largest value, and only on a strict
// gain. It reports whether the policy changed.
//
//schedvet:alloc-free
func (rs *RecScratch) improve(n int) bool {
	changed := false
	for u := 0; u < n; u++ {
		bp, bq, best := rs.p[u], rs.q[u], int32(-1)
		for j := rs.off[u]; j < rs.off[u+1]; j++ {
			if v := rs.to[j]; rs.p[v]*bq > bp*rs.q[v] {
				bp, bq, best = rs.p[v], rs.q[v], j
			}
		}
		if best >= 0 {
			rs.pol[u] = best
			changed = true
		}
	}
	if changed {
		return true
	}
	for u := 0; u < n; u++ {
		p, q := rs.p[u], rs.q[u]
		bx, best := rs.x[u], int32(-1)
		for j := rs.off[u]; j < rs.off[u+1]; j++ {
			v := rs.to[j]
			if rs.p[v] != p || rs.q[v] != q {
				continue
			}
			if t := q*rs.w[u] - p*rs.dist[j] + rs.x[v]; t > bx {
				bx, best = t, j
			}
		}
		if best >= 0 {
			rs.pol[u] = best
			changed = true
		}
	}
	return changed
}

// gcd is the greatest common divisor of |a| and b > 0.
//
//schedvet:alloc-free
func gcd(a, b int) int {
	if a < 0 {
		a = -a
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// MII returns max(ResMII, RecMII), the schedule lower bound used to
// seed the assignment/scheduling loop.
func MII(g *ddg.Graph, m *machine.Config) int {
	return NewMachine(m).MII(g)
}

// Machine caches the per-machine inputs of the bound computations —
// today the per-class function-unit totals ResMII divides by — so a
// session scheduling many loops against one machine configuration
// derives them once instead of per loop. Immutable after construction
// and therefore safe for concurrent use.
type Machine struct {
	m          *machine.Config
	unitTotals []int
}

// NewMachine builds the cached resource view of m.
func NewMachine(m *machine.Config) *Machine {
	return &Machine{m: m, unitTotals: unitTotalsOf(m)}
}

// MII returns max(ResMII, RecMII) for g on the cached machine.
func (mc *Machine) MII(g *ddg.Graph) int {
	var rs RecScratch
	mii, _, _ := mc.MIIWith(g, &rs, nil)
	return mii
}

// MIIWith is MII with caller-supplied scratch buffers, for a session
// computing the bound for many loops on one machine. It also returns
// the per-component RecMII vector the bound came from (SCCRecMIIs, in
// g.NonTrivialSCCs() order, aliasing rs), which ranks the recurrences
// for the assignment order, and ok false when tr was canceled before
// the vector was complete. The Machine stays immutable and
// concurrency-safe; the scratch carries all mutable state and is
// single-threaded.
func (mc *Machine) MIIWith(g *ddg.Graph, rs *RecScratch, tr *obs.Trace) (mii int, recs []int, ok bool) {
	rs.charged = growInts(rs.charged, int(machine.NumFUClasses))
	res := resMIIWith(g, mc.m, mc.unitTotals, rs.charged)
	recs, ok = rs.SCCRecMIIs(g, mc.m.Latency, tr)
	if rec := maxRec(recs); rec > res {
		return rec, recs, ok
	}
	return res, recs, ok
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
