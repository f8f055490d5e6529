// Package verify independently re-checks finished modulo schedules:
// every dependence distance, every resource reservation, and the
// cluster-locality rule that an operation may only read values present
// in its own register file. It is the test oracle the rest of the
// repository trusts, so it shares no bookkeeping with the schedulers —
// it replays the schedule into an empty reservation table of its own.
package verify

import (
	"fmt"

	"clustersched/internal/ddg"
	"clustersched/internal/sched"
)

// Schedule re-validates a modulo schedule against its input. It
// returns nil when the schedule is valid, or an error describing the
// first violation found. It is the compatibility wrapper over Audit,
// which enumerates every violation as structured diagnostics.
func Schedule(in sched.Input, s *sched.Schedule) error {
	diags := Audit(in, s)
	if len(diags) == 0 {
		return nil
	}
	return fmt.Errorf("verify: %s", diags[0].Message)
}

func clusterOf(in sched.Input, n int) int {
	if in.ClusterOf == nil {
		return 0
	}
	return in.ClusterOf[n]
}

func copyTargets(in sched.Input, n int) []int {
	if in.CopyTargets == nil {
		return nil
	}
	return in.CopyTargets[n]
}

// MaxLive estimates the steady-state register pressure of a modulo
// schedule: for every produced value, the interval from availability
// (definition plus latency) to its last use is spread over the kernel
// slots modulo II; the maximum overlap across slots is the number of
// simultaneously live values the rotating register file must hold.
// Per-cluster pressure is attributed to the register file physically
// holding the value: the producer's cluster for ordinary operations,
// each target cluster for copies (a broadcast copy occupies a register
// in every file it writes).
func MaxLive(in sched.Input, s *sched.Schedule) (total int, perCluster []int) {
	g := in.Graph
	lat := in.Machine.Latency
	buckets := make([]int, in.II)
	clBuckets := make([][]int, in.Machine.NumClusters())
	for i := range clBuckets {
		clBuckets[i] = make([]int, in.II)
	}
	record := func(cl, start, end int) {
		if end <= start {
			end = start + 1 // a result occupies its register at least one cycle
		}
		for t := start; t < end; t++ {
			slot := ((t % in.II) + in.II) % in.II
			buckets[slot]++
			clBuckets[cl][slot]++
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.Nodes[v].Kind == ddg.OpStore || g.Nodes[v].Kind == ddg.OpBranch {
			continue // no register result
		}
		start := s.CycleOf[v] + lat(g.Nodes[v].Kind)
		if g.Nodes[v].Kind == ddg.OpCopy && in.CopyTargets != nil {
			for _, target := range in.CopyTargets[v] {
				end := start
				for _, e := range g.OutEdges(v) {
					if clusterOf(in, e.To) != target {
						continue
					}
					if use := s.CycleOf[e.To] + in.II*e.Distance; use > end {
						end = use
					}
				}
				record(target, start, end)
			}
			continue
		}
		end := start
		for _, e := range g.OutEdges(v) {
			if use := s.CycleOf[e.To] + in.II*e.Distance; use > end {
				end = use
			}
		}
		record(clusterOf(in, v), start, end)
	}
	perCluster = make([]int, len(clBuckets))
	for _, b := range buckets {
		if b > total {
			total = b
		}
	}
	for i, cb := range clBuckets {
		for _, b := range cb {
			if b > perCluster[i] {
				perCluster[i] = b
			}
		}
	}
	return total, perCluster
}
