package sched

import (
	"clustersched/internal/obs"
)

// imsBudgetRatio is IMS's scheduling-attempt budget per node (Rau
// reports a ratio of a few attempts per operation suffices; we are
// generous).
const imsBudgetRatio = 12

// IMS runs Rau's iterative modulo scheduler on the input at its fixed
// II. It reports false when no schedule was found within the budget
// (including the case where inserted copies push RecMII above II, so
// no schedule can exist).
func IMS(in Input) (*Schedule, bool) {
	validateInput(in)
	g := in.Graph
	lat := in.Machine.Latency
	n := g.NumNodes()
	if n == 0 {
		return &Schedule{II: in.II, CycleOf: nil}, true
	}

	s := in.Scratch
	if s == nil {
		s = new(Scratch)
	}
	// If the dependence constraints are unsatisfiable at this II (a
	// recurrence cycle exceeds II), fail immediately.
	lstart, ok := g.LatestStartInto(&s.start, lat, in.II, in.Trace)
	if !ok {
		return nil, false
	}

	budget := imsBudgetRatio * n

	table := s.tableFor(&in)
	cycleOf, scheduled, everTried, lastCycle := s.prep(n)

	// Priority: most critical first — smallest latest-start time, ties
	// by node ID for determinism.
	pq := s.heapFor(lstart)
	for i := 0; i < n; i++ {
		pq.push(i)
	}

	for pq.len() > 0 {
		if in.Trace.Canceled() {
			return nil, false
		}
		if budget <= 0 {
			in.Trace.BudgetExhausted(obs.PhaseSched, in.II, -1)
			return nil, false
		}
		budget--
		op := pq.pop()
		if scheduled[op] {
			continue
		}

		estart := 0
		for _, e := range g.InEdges(op) {
			if !scheduled[e.From] {
				continue
			}
			t := cycleOf[e.From] + lat(g.Nodes[e.From].Kind) - in.II*e.Distance
			if t > estart {
				estart = t
			}
		}

		placedAt := -1
		for t := estart; t < estart+in.II; t++ {
			if canPlace(&in, table, op, t) {
				placedAt = t
				break
			}
		}
		if placedAt < 0 {
			// Forced placement: displace whatever occupies the chosen
			// cycle (Rau's "schedule with displacement").
			placedAt = estart
			if everTried[op] && lastCycle[op]+1 > placedAt {
				placedAt = lastCycle[op] + 1
			}
			s.conflicts = conflictsAt(&in, table, op, placedAt, s.conflicts)
			for _, victim := range s.conflicts {
				unplace(table, victim)
				scheduled[victim] = false
				pq.push(victim)
				in.Trace.SchedDisplace(in.II, op, victim)
			}
			if !place(&in, table, op, placedAt) {
				// The conflict list covered every occupant, so this
				// cannot fail for resource reasons; treat defensively.
				return nil, false
			}
		} else if !place(&in, table, op, placedAt) {
			return nil, false
		}
		cycleOf[op] = placedAt
		scheduled[op] = true
		everTried[op] = true
		lastCycle[op] = placedAt

		// Unschedule successors whose dependence from op is now
		// violated; they will be re-placed later.
		for _, e := range g.OutEdges(op) {
			if !scheduled[e.To] || e.To == op {
				continue
			}
			need := placedAt + lat(g.Nodes[op].Kind) - in.II*e.Distance
			if cycleOf[e.To] < need {
				unplace(table, e.To)
				scheduled[e.To] = false
				pq.push(e.To)
				in.Trace.SchedDisplace(in.II, op, e.To)
			}
		}
	}

	return &Schedule{II: in.II, CycleOf: copyOut(cycleOf)}, true
}

// nodeHeap is a concrete binary min-heap of node IDs ordered by
// ascending priority value (critical first), breaking ties by ID. The
// key order is total and every node is enqueued at most once at a time,
// so the pop sequence is exactly the sorted key order — identical to
// what container/heap produced — without boxing every element through
// an any interface.
type nodeHeap struct {
	items []int
	prio  []int
}

//schedvet:alloc-free
func (h *nodeHeap) len() int { return len(h.items) }

//schedvet:alloc-free
func (h *nodeHeap) less(a, b int) bool {
	if h.prio[a] != h.prio[b] {
		return h.prio[a] < h.prio[b]
	}
	return a < b
}

//schedvet:alloc-free
func (h *nodeHeap) push(v int) {
	h.items = append(h.items, v)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

//schedvet:alloc-free
func (h *nodeHeap) pop() int {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && h.less(h.items[r], h.items[l]) {
			child = r
		}
		if !h.less(h.items[child], h.items[i]) {
			break
		}
		h.items[i], h.items[child] = h.items[child], h.items[i]
		i = child
	}
	return top
}
