// Package postpart implements the post-scheduling cluster partitioning
// baseline of Capitanio, Dutt & Nicolau (MICRO 1992), which the
// paper's related-work section argues against for cyclic code: first
// modulo-schedule the loop for the equivalent unified machine, then
// partition the scheduled operations across clusters (balancing each
// cycle's issue load), insert the required copies, and re-run the
// modulo scheduler with the cluster annotations, escalating II until
// it fits. Because partitioning happens after scheduling, the impact
// of breaking critical recurrences across clusters is not considered —
// exactly the failure mode the paper predicts. The experiments package
// compares this baseline against pre-scheduling cluster assignment.
package postpart

import (
	"fmt"
	"sort"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
	"clustersched/internal/sched"
)

// Outcome mirrors pipeline.Outcome for the baseline.
type Outcome struct {
	II         int
	MII        int
	Assignment *assign.Result
	Schedule   *sched.Schedule
}

// maxIISlack bounds the II search above MII, as pipeline's default.
const maxIISlack = 96

// Run schedules loop g on clustered machine m with post-scheduling
// partitioning.
func Run(g *ddg.Graph, m *machine.Config) (*Outcome, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("postpart: invalid graph: %w", err)
	}
	unified := m.Unified()
	base := mii.MII(g, m)

	for ii := base; ii <= base+maxIISlack; ii++ {
		// Phase 1: schedule as straight modulo-scheduled code on the
		// unified machine.
		us, ok := sched.IMS(sched.Input{Graph: g, Machine: unified, II: ii})
		if !ok {
			continue
		}
		// Phase 2: partition the scheduled operations over clusters,
		// balancing per-slot issue load, with no regard for
		// recurrences (the defining property of the baseline).
		clusterOf := partition(g, m, us, ii)
		// Phase 3: materialize the copies this partition implies and
		// re-schedule with the annotations. We reuse the assignment
		// package's copy materialization by replaying the fixed
		// partition through its capacity model.
		res, ok := materialize(g, m, clusterOf, ii)
		if !ok {
			continue // partition needs more copies than the fabric has
		}
		in := sched.Input{
			Graph:       res.Graph,
			Machine:     m,
			ClusterOf:   res.ClusterOf,
			CopyTargets: res.CopyTargets,
			II:          ii,
		}
		s, ok := sched.IMS(in)
		if !ok {
			continue
		}
		return &Outcome{II: ii, MII: base, Assignment: res, Schedule: s}, nil
	}
	return nil, fmt.Errorf("postpart: no schedule for %q within II <= %d", m.Name, base+maxIISlack)
}

// partition distributes the unified schedule's operations across
// clusters: operations are visited slot by slot in scheduled order and
// dealt to the cluster with a capable free unit in that slot that
// currently holds the fewest operations — local load balancing with no
// recurrence awareness, in the spirit of treating the loop as straight
// line code.
func partition(g *ddg.Graph, m *machine.Config, s *sched.Schedule, ii int) []int {
	n := g.NumNodes()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa := ((s.CycleOf[order[a]] % ii) + ii) % ii
		sb := ((s.CycleOf[order[b]] % ii) + ii) % ii
		if sa != sb {
			return sa < sb
		}
		return s.CycleOf[order[a]] < s.CycleOf[order[b]]
	})

	clusterOf := make([]int, n)
	loadTotal := make([]int, m.NumClusters())
	type slotKey struct{ cl, slot int }
	slotUsed := map[slotKey]int{}

	for _, v := range order {
		slot := ((s.CycleOf[v] % ii) + ii) % ii
		kind := g.Nodes[v].Kind
		best, bestLoad := -1, 0
		for cl := 0; cl < m.NumClusters(); cl++ {
			cap := m.Clusters[cl].FUCountFor(kind)
			if cap == 0 || slotUsed[slotKey{cl, slot}] >= cap {
				continue
			}
			if best == -1 || loadTotal[cl] < bestLoad {
				best, bestLoad = cl, loadTotal[cl]
			}
		}
		if best == -1 {
			// The slot is saturated everywhere (can happen when the
			// unified schedule packed a wide row); fall back to the
			// least-loaded capable cluster and let re-scheduling move it.
			for cl := 0; cl < m.NumClusters(); cl++ {
				if m.Clusters[cl].FUCountFor(kind) == 0 {
					continue
				}
				if best == -1 || loadTotal[cl] < bestLoad {
					best, bestLoad = cl, loadTotal[cl]
				}
			}
		}
		clusterOf[v] = best
		loadTotal[best]++
		slotUsed[slotKey{best, slot}]++
	}
	return clusterOf
}

// materialize builds the annotated graph (copy nodes, rerouted edges)
// for a fixed partition, reporting false when the communication fabric
// cannot carry the implied copies at this II.
func materialize(g *ddg.Graph, m *machine.Config, clusterOf []int, ii int) (*assign.Result, bool) {
	return assign.Materialize(g, m, clusterOf, ii)
}
