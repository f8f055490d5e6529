package sched

import (
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
)

// TestSchedulersWarmRunAllocs gates the per-II reset path: with a warm
// Scratch, a whole scheduler run allocates exactly twice — the
// returned Schedule and its copied-out cycle vector — so the per-II
// reset (table, run buffers, start vectors, ordering, work-list heap)
// and the placement loop itself are allocation-free.
func TestSchedulersWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; accounting is meaningless")
	}
	m := machine.NewBusedGP(2, 2, 1)
	var g *ddg.Graph
	for _, cand := range loopgen.Suite(loopgen.Options{Seed: 13, Count: 32}) {
		if g == nil || cand.NumNodes() > g.NumNodes() {
			g = cand
		}
	}
	ii := mii.MII(g, m)
	var res *assign.Result
	for ; ; ii++ {
		r, ok := assign.Run(g, m, ii, assign.Options{Variant: assign.HeuristicIterative})
		if ok {
			res = r
			break
		}
	}
	for name, run := range schedulers() {
		t.Run(name, func(t *testing.T) {
			sc := new(Scratch)
			in := Input{
				Graph:       res.Graph,
				Machine:     m,
				ClusterOf:   res.ClusterOf,
				CopyTargets: res.CopyTargets,
				II:          ii + 2, // slack so both schedulers succeed
				Scratch:     sc,
			}
			if _, ok := run(in); !ok {
				t.Skipf("%s found no schedule; alloc gate not applicable", name)
			}
			if avg := testing.AllocsPerRun(20, func() {
				if _, ok := run(in); !ok {
					t.Fatalf("%s failed on a warm rerun", name)
				}
			}); avg > 2 {
				t.Fatalf("warm %s run allocates %.1f times, want <= 2 (Schedule + cycle copy)", name, avg)
			}
		})
	}
}
