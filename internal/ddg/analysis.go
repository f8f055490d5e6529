package ddg

import "clustersched/internal/obs"

// LatencyFunc maps an operation kind to its latency in cycles. Latency
// is a machine property; package machine supplies the Table 2 values.
type LatencyFunc func(OpKind) int

// StartScratch holds the reusable buffers of the start-time analyses
// so a per-candidate-II caller (the schedulers, the swing ordering)
// stops allocating per call. The returned vectors alias the scratch and
// stay valid until the next call on it; the zero value is ready to
// use. A StartScratch is single-threaded.
type StartScratch struct {
	est, lst []int

	// The relaxation order of the last forward pass, derived from the
	// adjacency cache adj: every node's latency, the nodes in a
	// topological order of the distance-0 subgraph (topo, of which the
	// first sorted are Kahn-ordered) with each node's position in it,
	// and the slab indices in adj.edges of the edges that order
	// reverses, self-edges included. order is one slab of three runs
	// of n: topo, pos and the sort's in-degree counters.
	lat    []int
	topo   []int32
	pos    []int32
	back   []int32
	sorted int
	adj    *adjacency
	order  []int32
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

// EarliestStart computes, for a candidate initiation interval II, the
// earliest modulo-schedule slot of every node: the longest-path distance
// from any source using edge weight latency(from) - II*distance, clamped
// at zero. The result is the ASAP time used by the swing ordering and by
// schedulers as a lower bound.
//
// The relaxation converges only when the graph has no positive cycle at
// this II (i.e. II >= RecMII); ok reports whether it converged.
func (g *Graph) EarliestStart(lat LatencyFunc, ii int) (estart []int, ok bool) {
	var sc StartScratch
	return g.EarliestStartInto(&sc, lat, ii, nil)
}

// EarliestStartInto is EarliestStart into sc's reusable buffers. The
// returned vector aliases sc and is overwritten by the next call.
//
// Each round relaxes the nodes in a topological order of the
// distance-0 subgraph, the first round while sorting them, so round r
// settles every path that turns backwards in that order at most r-1
// times. A graph without a positive cycle therefore converges within
// B+1 rounds, B being its number of order-reversing edges (loop-carried
// ones only, on a valid graph), and a change in round B+2 proves a
// positive cycle. A round that raises no node it has already relaxed
// has reached the fixed point, which on a typical loop is the first.
// tr is polled once per round: when it is canceled the pass stops
// early and reports ok false.
func (g *Graph) EarliestStartInto(sc *StartScratch, lat LatencyFunc, ii int, tr *obs.Trace) (estart []int, ok bool) {
	sc.est = growInts(sc.est, len(g.Nodes))
	for i := range sc.est {
		sc.est[i] = 0
	}
	if tr.Canceled() {
		return sc.est, false
	}
	if !sc.sortRelax(g, lat, ii, sc.est) {
		return sc.est, true
	}
	return sc.est, sc.relaxEarliest(ii, tr)
}

// sortRelax derives the relaxation order of g into sc and runs the
// first forward round on est (zeroed by the caller) along the way: it
// sorts the distance-0 subgraph by Kahn's algorithm (sources by ID,
// then breadth-first along out-edges), appends the nodes on or behind
// a distance-0 cycle, which Validate rejects, in ID order, and records
// every edge that points backwards in the result. It reports whether
// the round raised a node it had already relaxed, i.e. whether another
// round is needed.
func (sc *StartScratch) sortRelax(g *Graph, lat LatencyFunc, ii int, est []int) (late bool) {
	n := len(g.Nodes)
	adj := g.adjacencyCache()
	sc.adj = adj
	var byKind [NumOpKinds]int
	for k := range byKind {
		byKind[k] = lat(OpKind(k))
	}
	sc.lat = growInts(sc.lat, n)
	sc.order = growInt32s(sc.order, 3*n)
	pos, indeg := sc.order[:n:n], sc.order[n:2*n:2*n]
	sc.pos = pos
	for i, nd := range g.Nodes {
		sc.lat[i] = byKind[nd.Kind]
		pos[i] = -1
		indeg[i] = 0
	}
	for _, e := range g.Edges {
		if e.Distance == 0 {
			indeg[e.To]++
		}
	}
	topo := sc.order[2*n : 2*n : 3*n]
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			topo = append(topo, int32(v))
		}
	}
	back := sc.back[:0]
	edges, eoff := adj.edges, adj.eoff
	sorted := n
	for head := 0; head < n; head++ {
		if head == len(topo) {
			// Kahn's queue ran dry: the rest lies on or behind a
			// distance-0 cycle.
			sorted = head
			for v := 0; v < n; v++ {
				if pos[v] < 0 {
					topo = append(topo, int32(v))
				}
			}
		}
		v := topo[head]
		pos[v] = int32(head)
		base := est[v] + sc.lat[v]
		for j := eoff[v]; j < eoff[v+1]; j++ {
			e := &edges[j]
			to := e.To
			if pos[to] >= 0 {
				back = append(back, j)
				if t := base - ii*e.Distance; t > est[to] {
					est[to] = t
					late = true
				}
				continue
			}
			if e.Distance == 0 && sorted == n {
				if indeg[to]--; indeg[to] == 0 {
					topo = append(topo, int32(to))
				}
			}
			if t := base - ii*e.Distance; t > est[to] {
				est[to] = t
			}
		}
	}
	sc.sorted = sorted
	sc.topo, sc.back = topo, back
	return late
}

// relaxEarliest runs the forward rounds after the first over sc.est in
// sc.topo order, until a round raises no node it has already relaxed.
//
//schedvet:alloc-free
func (sc *StartScratch) relaxEarliest(ii int, tr *obs.Trace) bool {
	est, pos, adj := sc.est, sc.pos, sc.adj
	for round := 2; round <= len(sc.back)+2; round++ {
		if tr.Canceled() {
			return false
		}
		late := false
		for _, v := range sc.topo {
			base := est[v] + sc.lat[v]
			for _, e := range adj.out(int(v)) {
				if t := base - ii*e.Distance; t > est[e.To] {
					est[e.To] = t
					late = late || pos[e.To] <= pos[v]
				}
			}
		}
		if !late {
			return true
		}
	}
	return false
}

// LatestStart computes the latest start times against the schedule-length
// horizon implied by the earliest starts: LStart(v) = horizon - longest
// path from v to any sink, mirrored from EarliestStart. ok is false when
// the relaxation fails to converge (positive cycle at this II).
func (g *Graph) LatestStart(lat LatencyFunc, ii int) (lstart []int, ok bool) {
	var sc StartScratch
	return g.LatestStartInto(&sc, lat, ii, nil)
}

// LatestStartInto is LatestStart into sc's reusable buffers: the
// forward pass of EarliestStartInto, then LatestStartFrom. It also
// overwrites sc's earliest-start vector; the returned vector aliases
// sc and is overwritten by the next call.
func (g *Graph) LatestStartInto(sc *StartScratch, lat LatencyFunc, ii int, tr *obs.Trace) (lstart []int, ok bool) {
	estart, ok := g.EarliestStartInto(sc, lat, ii, tr)
	if !ok {
		return nil, false
	}
	return g.LatestStartFrom(sc, ii, estart, tr)
}

// LatestStartFrom is LatestStartInto for a caller that already holds
// the earliest starts of g at ii: estart must be what
// EarliestStartInto last returned from sc, converged, and it is only
// read. The forward pass is not run again; the backward rounds reuse
// its relaxation order, pulling each node's bound from its successors
// in reverse, stop at the first round after which every
// order-reversing edge holds, and poll tr like EarliestStartInto.
func (g *Graph) LatestStartFrom(sc *StartScratch, ii int, estart []int, tr *obs.Trace) (lstart []int, ok bool) {
	n := len(g.Nodes)
	if sc.adj != g.adjacencyCache() || len(sc.lat) != n || len(estart) != n {
		panic("ddg: LatestStartFrom without the forward pass of this graph on the scratch")
	}
	horizon := 0
	for i, t := range estart {
		if end := t + sc.lat[i]; end > horizon {
			horizon = end
		}
	}
	sc.lst = growInts(sc.lst, n)
	for i := range sc.lst {
		sc.lst[i] = horizon - sc.lat[i]
	}
	if !sc.relaxLatest(ii, tr) {
		return nil, false
	}
	return sc.lst, true
}

// relaxLatest runs the backward rounds over sc.lst.
//
//schedvet:alloc-free
func (sc *StartScratch) relaxLatest(ii int, tr *obs.Trace) bool {
	lst, adj := sc.lst, sc.adj
	for round := 1; round <= len(sc.back)+2; round++ {
		if tr.Canceled() {
			return false
		}
		for k := len(sc.topo) - 1; k >= 0; k-- {
			v := sc.topo[k]
			best, l := lst[v], sc.lat[v]
			for _, e := range adj.out(int(v)) {
				if t := lst[e.To] - l + ii*e.Distance; t < best {
					best = t
				}
			}
			lst[v] = best
		}
		// Every other edge was pulled after its target settled.
		settled := true
		for _, j := range sc.back {
			e := &adj.edges[j]
			if lst[e.To]-sc.lat[e.From]+ii*e.Distance < lst[e.From] {
				settled = false
				break
			}
		}
		if settled {
			return true
		}
	}
	return false
}

// Height returns, per node, the longest-latency path from the node to
// any sink of the graph ignoring loop-carried edges (distance >= 1).
// This is the classic list-scheduling priority used by the iterative
// modulo scheduler. Nodes on or behind a distance-0 cycle, which
// Validate rejects, get height 0.
func (g *Graph) Height(lat LatencyFunc) []int {
	n := len(g.Nodes)
	height := make([]int, n)
	var sc StartScratch
	sc.sortRelax(g, lat, 0, height)
	for i := range height {
		height[i] = 0
	}
	for k := sc.sorted - 1; k >= 0; k-- {
		v := int(sc.topo[k])
		h := 0
		for _, e := range sc.adj.out(v) {
			if e.Distance != 0 {
				continue
			}
			if t := height[e.To] + sc.lat[v]; t > h {
				h = t
			}
		}
		if h == 0 {
			h = sc.lat[v]
		}
		height[v] = h
	}
	return height
}
