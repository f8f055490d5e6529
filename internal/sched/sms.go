package sched

import (
	"clustersched/internal/obs"
)

// DefaultSMSBudgetRatio is the displacement budget per node for the
// iterative swing modulo scheduler.
const DefaultSMSBudgetRatio = 12

// SMS runs an iterative swing modulo scheduler: nodes are taken in the
// swing order (criticality-ranked recurrences first, neighbours kept
// adjacent) and placed as close as possible to their already scheduled
// neighbours, scanning forward when driven by predecessors and
// backward when driven by successors. When no slot exists the node is
// force-placed and the conflicting occupants displaced, bounded by a
// budget — the "iterative version of the swing modulo scheduler" the
// paper uses in phase two.
func SMS(in Input, budgetRatio int) (*Schedule, bool) {
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
	estart0, ok := g.EarliestStartInto(&s.start, lat, in.II, in.Trace)
	if !ok {
		return nil, false // recurrence exceeds II; unschedulable
	}
	if budgetRatio <= 0 {
		budgetRatio = DefaultSMSBudgetRatio
	}
	budget := budgetRatio * n

	prio := s.order.ComputeWith(g, lat, nil, in.Trace)
	rank := s.rankBuf(n)
	for i, v := range prio {
		rank[v] = i
	}

	table := s.tableFor(&in)
	cycleOf, scheduled, everTried, lastCycle := s.prep(n)

	// Work list ordered by swing rank; displaced nodes re-enter it.
	pq := s.heapFor(rank)
	for _, v := range prio {
		pq.push(v)
	}

	const unset = int(^uint(0) >> 1) // max int sentinel

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

		early := unset
		for _, e := range g.InEdges(op) {
			if !scheduled[e.From] || e.From == op {
				continue
			}
			t := cycleOf[e.From] + lat(g.Nodes[e.From].Kind) - in.II*e.Distance
			if early == unset || t > early {
				early = t
			}
		}
		late := unset
		for _, e := range g.OutEdges(op) {
			if !scheduled[e.To] || e.To == op {
				continue
			}
			t := cycleOf[e.To] - lat(g.Nodes[op].Kind) + in.II*e.Distance
			if late == unset || t < late {
				late = t
			}
		}

		placedAt := unset
		switch {
		case early != unset && late != unset:
			for t := early; t <= late && t < early+in.II; t++ {
				if canPlace(&in, table, op, t) {
					placedAt = t
					break
				}
			}
		case early != unset:
			for t := early; t < early+in.II; t++ {
				if canPlace(&in, table, op, t) {
					placedAt = t
					break
				}
			}
		case late != unset:
			for t := late; t > late-in.II; t-- {
				if canPlace(&in, table, op, t) {
					placedAt = t
					break
				}
			}
		default:
			for t := estart0[op]; t < estart0[op]+in.II; t++ {
				if canPlace(&in, table, op, t) {
					placedAt = t
					break
				}
			}
		}

		if placedAt == unset {
			// Forced placement with displacement, as in IMS.
			placedAt = estart0[op]
			if early != unset && early > placedAt {
				placedAt = early
			}
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
		}
		if !place(&in, table, op, placedAt) {
			return nil, false
		}
		cycleOf[op] = placedAt
		scheduled[op] = true
		everTried[op] = true
		lastCycle[op] = placedAt

		// Displace neighbours whose dependences are now violated.
		for _, e := range g.OutEdges(op) {
			if !scheduled[e.To] || e.To == op {
				continue
			}
			if cycleOf[e.To] < placedAt+lat(g.Nodes[op].Kind)-in.II*e.Distance {
				unplace(table, e.To)
				scheduled[e.To] = false
				pq.push(e.To)
				in.Trace.SchedDisplace(in.II, op, e.To)
			}
		}
		for _, e := range g.InEdges(op) {
			if !scheduled[e.From] || e.From == op {
				continue
			}
			if cycleOf[e.From]+lat(g.Nodes[e.From].Kind)-in.II*e.Distance > placedAt {
				unplace(table, e.From)
				scheduled[e.From] = false
				pq.push(e.From)
				in.Trace.SchedDisplace(in.II, op, e.From)
			}
		}
	}

	normalize(cycleOf, in.II)
	return &Schedule{II: in.II, CycleOf: copyOut(cycleOf)}, true
}

// normalize shifts all cycles by a multiple of II so the earliest is
// non-negative; modulo slots are unchanged.
func normalize(cycleOf []int, ii int) {
	minC := 0
	for _, c := range cycleOf {
		if c < minC {
			minC = c
		}
	}
	if minC >= 0 {
		return
	}
	shift := ((-minC + ii - 1) / ii) * ii
	for i := range cycleOf {
		cycleOf[i] += shift
	}
}
