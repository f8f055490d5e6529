// Package order computes the node order used by cluster assignment
// (paper Section 4.1): nodes of the most constraining strongly
// connected component first, then successively less critical SCCs,
// then all remaining nodes; within each set the Swing Modulo Scheduler
// ordering heuristic lists a node, when possible, only after all of its
// successors or all of its predecessors, so assignment rarely sees a
// node whose neighbours have already been scattered across clusters.
package order

import (
	"clustersched/internal/ddg"
	"clustersched/internal/mii"
	"clustersched/internal/obs"
)

// Scratch holds every working buffer of Compute so repeated calls — one
// per candidate II in the swing scheduler, one per loop in problem
// construction — allocate nothing once the buffers have grown to the
// largest graph seen. The zero value is ready to use. The slice Compute
// returns aliases the scratch and is overwritten by the next call on
// it; callers that keep the order across calls must copy it or own the
// scratch. A Scratch is single-threaded.
//
// Set-membership stamps survive across calls by way of a monotonic
// epoch (the same idiom as the assignment engine's mark buffers), so
// the per-node stamp vector is never cleared; the boolean frontier
// flags are cleared per call, which costs a memclr but no allocation.
type Scratch struct {
	start  ddg.StartScratch
	rec    mii.RecScratch
	height []int

	ordered []int
	placed  []bool
	inSet   []int
	epoch   int
	inR     []bool
	rbuf    []int
	fr      frontiers

	// rankedSets buffers: the criticality-ranked components, the
	// SCC-membership flags, and the set list with its trailing
	// "everything else" set.
	rcomps []rankedComp
	inSCC  []bool
	sets   [][]int
	rest   []int
}

// rankedComp pairs one SCC's member list with its recurrence bound for
// the criticality sort.
type rankedComp struct {
	nodes []int
	rec   int
}

// rankedSets partitions the nodes into priority sets: one set per
// non-trivial SCC (comps, with their RecMIIs in recs), sorted by
// decreasing recurrence criticality (SCC RecMII, ties by larger size
// then smaller minimum node ID), followed by one final set with every
// node outside any recurrence. The returned sets alias the scratch
// (and the graph's SCC cache) and are overwritten by the next call.
func (s *Scratch) rankedSets(g *ddg.Graph, comps []*ddg.SCC, recs []int) [][]int {
	if cap(s.rcomps) < len(comps) {
		s.rcomps = make([]rankedComp, len(comps))
	}
	s.rcomps = s.rcomps[:len(comps)]
	for i, c := range comps {
		s.rcomps[i] = rankedComp{nodes: c.Nodes, rec: recs[i]}
	}
	// Stable insertion sort: components are few, and a hand-rolled sort
	// keeps the warm path free of the closure sort.SliceStable allocates.
	rc := s.rcomps
	for i := 1; i < len(rc); i++ {
		for j := i; j > 0 && moreCriticalSet(rc[j], rc[j-1]); j-- {
			rc[j], rc[j-1] = rc[j-1], rc[j]
		}
	}

	s.inSCC = growBools(s.inSCC, g.NumNodes())
	s.sets = s.sets[:0]
	for _, c := range rc {
		s.sets = append(s.sets, c.nodes)
		for _, n := range c.nodes {
			s.inSCC[n] = true
		}
	}
	s.rest = growCap(s.rest, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		if !s.inSCC[i] {
			s.rest = append(s.rest, i)
		}
	}
	if len(s.rest) > 0 {
		s.sets = append(s.sets, s.rest)
	}
	return s.sets
}

// moreCriticalSet is the strict criticality order of the priority sets:
// larger RecMII first, ties by larger size then smaller minimum node
// ID. Strictness (false on equal keys) is what keeps the insertion
// sort stable.
//
//schedvet:alloc-free
func moreCriticalSet(a, b rankedComp) bool {
	if a.rec != b.rec {
		return a.rec > b.rec
	}
	if len(a.nodes) != len(b.nodes) {
		return len(a.nodes) > len(b.nodes)
	}
	return a.nodes[0] < b.nodes[0]
}

// Compute returns all node IDs in assignment priority order, in the
// scratch's buffers: element-identical to a run on a fresh Scratch. The
// returned slice is overwritten by the next call on the same scratch.
func (s *Scratch) Compute(g *ddg.Graph, lat ddg.LatencyFunc) []int {
	return s.ComputeWith(g, lat, nil, nil)
}

// ComputeWith is Compute for a caller that already holds g's per-SCC
// RecMII vector (mii.RecScratch.SCCRecMIIs, in g.NonTrivialSCCs()
// order), so it is not computed again; a nil recs computes it here. The
// bound passes poll tr; when it is canceled they stop early and the
// order falls back to the ranking without start times, still a
// permutation of the nodes, for a caller about to abandon it.
func (s *Scratch) ComputeWith(g *ddg.Graph, lat ddg.LatencyFunc, recs []int, tr *obs.Trace) []int {
	if g.NumNodes() == 0 {
		return nil
	}
	n := g.NumNodes()
	// One per-SCC vector serves both the recurrence bound (RecMII is
	// its maximum) and the criticality ranking of the priority sets.
	comps := g.NonTrivialSCCs()
	if recs == nil {
		recs, _ = s.rec.SCCRecMIIs(g, lat, tr)
	}
	ii := 1
	for _, r := range recs {
		if r > ii {
			ii = r
		}
	}
	// depth aliases the start scratch's earliest starts, which the
	// backward pass only reads. RecMII makes both relaxations converge
	// on a valid graph; a vector whose pass does not (or is canceled)
	// falls back to all zeros.
	depth, ok := g.EarliestStartInto(&s.start, lat, ii, tr)
	var lstart []int
	if ok {
		lstart, ok = g.LatestStartFrom(&s.start, ii, depth, tr)
	} else {
		zeroInts(depth)
	}
	s.height = growInts(s.height, n)
	height := s.height
	if ok {
		maxL := 0
		for _, t := range lstart {
			if t > maxL {
				maxL = t
			}
		}
		for i, t := range lstart {
			height[i] = maxL - t
		}
	} else {
		zeroInts(height)
	}

	s.ordered = growCap(s.ordered, n)
	s.placed = growBools(s.placed, n)

	// Set membership by stamp and the candidate frontier as a flagged
	// slice: the sweep is allocation-free after these buffers. inSet
	// stamps are compared against this call's epoch-offset set IDs, so
	// stale stamps from earlier graphs never collide.
	s.inSet = growInts(s.inSet, n)
	s.inR = growBools(s.inR, n)
	s.rbuf = growCap(s.rbuf, n)

	// fr accumulates, across all sets, the direction-wise neighbours of
	// every ordered node, so a swing refill scans one deduplicated list
	// instead of re-walking the adjacency of everything ordered so far
	// (which made the sweep quadratic on long dependence chains).
	s.fr.succ = growCap(s.fr.succ, n)
	s.fr.pred = growCap(s.fr.pred, n)
	s.fr.inSucc = growBools(s.fr.inSucc, n)
	s.fr.inPred = growBools(s.fr.inPred, n)

	sets := s.rankedSets(g, comps, recs)
	base := s.epoch
	s.epoch += len(sets)
	for si, set := range sets {
		for _, n := range set {
			s.inSet[n] = base + si + 1
		}
		orderSet(g, set, s.inSet, base+si+1, depth, height, &s.ordered, s.placed, &s.rbuf, s.inR, &s.fr)
	}
	return s.ordered
}

// growCap returns buf emptied with capacity at least n, reallocating
// only on growth.
func growCap(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, 0, n)
	}
	return buf[:0]
}

// growInts returns buf resized to n (contents unspecified),
// reallocating only on growth.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// growBools returns buf resized to n with every flag false,
// reallocating only on growth.
func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

//schedvet:alloc-free
func zeroInts(buf []int) {
	for i := range buf {
		buf[i] = 0
	}
}

// frontiers is the incremental candidate pool of the swing sweep: for
// each direction, the deduplicated neighbours of every node ordered so
// far. Membership in a refill is a pure function of which nodes are
// placed, so maintaining the pool at placement time yields exactly the
// candidate set the original ordered-rescan produced.
type frontiers struct {
	succ, pred     []int
	inSucc, inPred []bool
}

// extend records the neighbours of a just-placed node v.
func (f *frontiers) extend(g *ddg.Graph, v int) {
	for _, n := range g.Successors(v) {
		if !f.inSucc[n] {
			f.inSucc[n] = true
			f.succ = append(f.succ, n)
		}
	}
	for _, n := range g.Predecessors(v) {
		if !f.inPred[n] {
			f.inPred[n] = true
			f.pred = append(f.pred, n)
		}
	}
}

// orderSet runs the swing alternating sweep over one priority set.
// inSet[n] == setID marks membership; rbuf and inR are the reusable
// candidate frontier (inR must be all-false on entry and is all-false
// on return, since the sweep always drains the frontier).
func orderSet(g *ddg.Graph, set []int, inSet []int, setID int, depth, height []int, ordered *[]int, placed []bool, rbuf *[]int, inR []bool, fr *frontiers) {
	const (
		topDown  = 0
		bottomUp = 1
	)

	remaining := 0
	for _, n := range set {
		if !placed[n] {
			remaining++
		}
	}

	r := (*rbuf)[:0]
	defer func() { *rbuf = r }()
	add := func(n int) {
		if inSet[n] == setID && !placed[n] && !inR[n] {
			inR[n] = true
			r = append(r, n)
		}
	}

	// candidates refills r with the unplaced members of the set adjacent
	// to the already ordered nodes, in the given direction. The frontier
	// pool holds exactly those neighbours; the selection below is order-
	// insensitive (pick breaks every tie by node ID), so scanning the
	// pool instead of the ordered list reproduces the original order.
	candidates := func(dir int) {
		var pool []int
		if dir == topDown {
			pool = fr.succ
		} else {
			pool = fr.pred
		}
		for _, n := range pool {
			add(n)
		}
	}

	for remaining > 0 {
		dir := topDown
		candidates(topDown)
		if len(r) == 0 {
			candidates(bottomUp)
			if len(r) > 0 {
				dir = bottomUp
			}
		}
		if len(r) == 0 {
			// Fresh component: seed with the most critical node (least
			// slack, i.e. greatest depth+height), descend top-down.
			best := -1
			for _, n := range set {
				if placed[n] {
					continue
				}
				if best == -1 || moreCritical(n, best, depth, height) {
					best = n
				}
			}
			inR[best] = true
			r = append(r, best)
		}

		for len(r) > 0 {
			// Drain r in the current direction, expanding within the set.
			for len(r) > 0 {
				i := pick(r, dir, depth, height)
				v := r[i]
				r[i] = r[len(r)-1]
				r = r[:len(r)-1]
				inR[v] = false
				if placed[v] {
					continue
				}
				placed[v] = true
				remaining--
				*ordered = append(*ordered, v)
				fr.extend(g, v)
				var neigh []int
				if dir == topDown {
					neigh = g.Successors(v)
				} else {
					neigh = g.Predecessors(v)
				}
				for _, n := range neigh {
					add(n)
				}
			}
			// Swing: continue from the other side of the ordered nodes.
			if dir == topDown {
				dir = bottomUp
			} else {
				dir = topDown
			}
			candidates(dir)
		}
	}
}

// pick selects the index in r of the next node: top-down prefers the
// deepest node (longest path from a source), bottom-up the highest
// (longest path to a sink); ties fall to the other metric, then to the
// smaller ID for determinism.
func pick(r []int, dir int, depth, height []int) int {
	bi := 0
	for i := 1; i < len(r); i++ {
		n, best := r[i], r[bi]
		var p1, p2, b1, b2 int
		if dir == 0 {
			p1, p2 = depth[n], height[n]
			b1, b2 = depth[best], height[best]
		} else {
			p1, p2 = height[n], depth[n]
			b1, b2 = height[best], depth[best]
		}
		switch {
		case p1 > b1:
			bi = i
		case p1 == b1 && p2 > b2:
			bi = i
		case p1 == b1 && p2 == b2 && n < best:
			bi = i
		}
	}
	return bi
}

// moreCritical ranks seed candidates: smaller slack first (depth+height
// is larger on critical paths), then smaller ID.
func moreCritical(a, b int, depth, height []int) bool {
	ca, cb := depth[a]+height[a], depth[b]+height[b]
	if ca != cb {
		return ca > cb
	}
	return a < b
}
