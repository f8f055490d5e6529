package ddg

// LatencyFunc maps an operation kind to its latency in cycles. Latency
// is a machine property; package machine supplies the Table 2 values.
type LatencyFunc func(OpKind) int

// StartScratch holds the reusable buffers of EarliestStartInto and
// LatestStartInto so a per-candidate-II caller (the schedulers, the
// swing ordering) stops paying three slice allocations per call. The
// returned vectors alias the scratch and stay valid until the next
// call on it; the zero value is ready to use. A StartScratch is
// single-threaded.
type StartScratch struct {
	est, lst, w []int
}

// growInts returns buf resized to n, reallocating only on growth.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
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
	return g.EarliestStartInto(&sc, lat, ii)
}

// EarliestStartInto is EarliestStart into sc's reusable buffers. The
// returned vector aliases sc and is overwritten by the next call.
func (g *Graph) EarliestStartInto(sc *StartScratch, lat LatencyFunc, ii int) (estart []int, ok bool) {
	n := len(g.Nodes)
	sc.est = growInts(sc.est, n)
	estart = sc.est
	for i := range estart {
		estart[i] = 0
	}
	w := g.edgeWeightsInto(sc, lat, ii)
	// Bellman-Ford over all edges. At most n rounds are needed when no
	// positive cycle exists; one extra round detects non-convergence.
	for round := 0; round <= n; round++ {
		changed := false
		for i, e := range g.Edges {
			if t := estart[e.From] + w[i]; t > estart[e.To] {
				estart[e.To] = t
				changed = true
			}
		}
		if !changed {
			return estart, true
		}
	}
	return estart, false
}

// edgeWeightsInto materializes the per-edge relaxation weight
// latency(from) - II*distance into sc's reusable buffer, hoisting the
// latency lookups out of the Bellman-Ford rounds.
//
//schedvet:alloc-free
func (g *Graph) edgeWeightsInto(sc *StartScratch, lat LatencyFunc, ii int) []int {
	sc.w = growInts(sc.w, len(g.Edges))
	for i, e := range g.Edges {
		sc.w[i] = lat(g.Nodes[e.From].Kind) - ii*e.Distance
	}
	return sc.w
}

// LatestStart computes the latest start times against the schedule-length
// horizon implied by the earliest starts: LStart(v) = horizon - longest
// path from v to any sink, mirrored from EarliestStart. ok is false when
// the relaxation fails to converge (positive cycle at this II).
func (g *Graph) LatestStart(lat LatencyFunc, ii int) (lstart []int, ok bool) {
	var sc StartScratch
	return g.LatestStartInto(&sc, lat, ii)
}

// LatestStartInto is LatestStart into sc's reusable buffers. It also
// overwrites sc's earliest-start vector (the horizon derives from it);
// the returned vector aliases sc and is overwritten by the next call.
func (g *Graph) LatestStartInto(sc *StartScratch, lat LatencyFunc, ii int) (lstart []int, ok bool) {
	estart, ok := g.EarliestStartInto(sc, lat, ii)
	if !ok {
		return nil, false
	}
	horizon := 0
	for i, t := range estart {
		if end := t + lat(g.Nodes[i].Kind); end > horizon {
			horizon = end
		}
	}
	n := len(g.Nodes)
	sc.lst = growInts(sc.lst, n)
	lstart = sc.lst
	for i := range lstart {
		lstart[i] = horizon - lat(g.Nodes[i].Kind)
	}
	w := sc.w // filled by EarliestStartInto for the same (lat, ii)
	for round := 0; round <= n; round++ {
		changed := false
		for i, e := range g.Edges {
			if t := lstart[e.To] - w[i]; t < lstart[e.From] {
				lstart[e.From] = t
				changed = true
			}
		}
		if !changed {
			return lstart, true
		}
	}
	return nil, false
}

// Height returns, per node, the longest-latency path from the node to
// any sink of the graph ignoring loop-carried edges (distance >= 1).
// This is the classic list-scheduling priority used by the iterative
// modulo scheduler.
func (g *Graph) Height(lat LatencyFunc) []int {
	n := len(g.Nodes)
	height := make([]int, n)
	order := g.reverseTopoAcyclic()
	adj := g.adjacencyCache()
	for _, v := range order {
		h := 0
		for _, e := range adj.out(v) {
			if e.Distance != 0 {
				continue
			}
			if t := height[e.To] + lat(g.Nodes[v].Kind); t > h {
				h = t
			}
		}
		if h == 0 {
			h = lat(g.Nodes[v].Kind)
		}
		height[v] = h
	}
	return height
}

// reverseTopoAcyclic returns the node IDs in reverse topological order
// of the subgraph of distance-0 edges (acyclic whenever Validate holds).
func (g *Graph) reverseTopoAcyclic() []int {
	n := len(g.Nodes)
	indeg := make([]int, n)
	for _, e := range g.Edges {
		if e.Distance == 0 {
			indeg[e.To]++
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	topo := make([]int, 0, n)
	adj := g.adjacencyCache()
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		topo = append(topo, v)
		for _, e := range adj.out(v) {
			if e.Distance != 0 {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	// Reverse in place.
	for i, j := 0, len(topo)-1; i < j; i, j = i+1, j-1 {
		topo[i], topo[j] = topo[j], topo[i]
	}
	return topo
}
