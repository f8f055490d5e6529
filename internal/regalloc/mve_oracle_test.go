package regalloc

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
	"clustersched/internal/sched"
	"clustersched/internal/stagesched"
)

// allocateMVEOracle is the straightforward MVE allocator AllocateMVE
// replaced: lifetimes computed twice, one []Binding per cluster grown
// by append, and one []Binding per register for the first-fit scan.
// AllocateMVE must return exactly its Allocation.
func allocateMVEOracle(in sched.Input, s *sched.Schedule) *Allocation {
	factor := MVEFactor(in, s)
	circle := factor * s.II
	alloc := &Allocation{
		Factor:         factor,
		RegsPerCluster: make([]int, in.Machine.NumClusters()),
	}

	byCluster := make([][]Binding, in.Machine.NumClusters())
	for _, l := range Lifetimes(in, s) {
		for i := 0; i < factor; i++ {
			b := Binding{Lifetime: l, Instance: i, Register: -1}
			byCluster[l.Cluster] = append(byCluster[l.Cluster], b)
		}
	}

	for cl, arcs := range byCluster {
		sort.Slice(arcs, func(i, j int) bool {
			a, b := arcs[i], arcs[j]
			if a.Len != b.Len {
				return a.Len > b.Len
			}
			if sa, sb := a.arcStart(s.II, circle), b.arcStart(s.II, circle); sa != sb {
				return sa < sb
			}
			if a.Value != b.Value {
				return a.Value < b.Value
			}
			return a.Instance < b.Instance
		})
		var regs [][]Binding
		for i := range arcs {
			placed := false
			for r := 0; r < len(regs) && !placed; r++ {
				if oracleFits(arcs[i], regs[r], s.II, circle) {
					arcs[i].Register = r
					regs[r] = append(regs[r], arcs[i])
					placed = true
				}
			}
			if !placed {
				arcs[i].Register = len(regs)
				regs = append(regs, []Binding{arcs[i]})
			}
		}
		alloc.RegsPerCluster[cl] = len(regs)
		alloc.Bindings = append(alloc.Bindings, arcs...)
	}
	return alloc
}

func oracleFits(a Binding, assigned []Binding, ii, circle int) bool {
	for _, b := range assigned {
		if arcsOverlap(a.arcStart(ii, circle), a.Len, b.arcStart(ii, circle), b.Len, circle) {
			return false
		}
	}
	return true
}

// suiteSchedules schedules the first count loops of the Table-1 suite
// (all of them when count is 0) on m, and — when moved is set — stage
// schedules each kernel the way the compile path does, which stretches
// lifetimes and so raises MVE factors.
func suiteSchedules(tb testing.TB, m *machine.Config, count int, moved bool) ([]sched.Input, []*sched.Schedule) {
	tb.Helper()
	sess := pipeline.NewSession(m, pipeline.Options{
		Assign: assign.Options{Variant: assign.HeuristicIterative},
	})
	var ins []sched.Input
	var schs []*sched.Schedule
	for _, g := range loopgen.Suite(loopgen.Options{Count: count}) {
		out, err := sess.Schedule(context.Background(), g)
		if err != nil {
			continue
		}
		in := sched.Input{
			Graph:       out.Assignment.Graph,
			Machine:     m,
			ClusterOf:   out.Assignment.ClusterOf,
			CopyTargets: out.Assignment.CopyTargets,
			II:          out.II,
		}
		if moved {
			stagesched.Optimize(in, out.Schedule)
		}
		ins = append(ins, in)
		schs = append(schs, out.Schedule)
	}
	return ins, schs
}

// TestAllocateMVEMatchesOracleOnSuite requires every Allocation field
// — factor, register counts, and every binding in order — to equal
// the oracle's on the whole Table-1 suite on three machines, with and
// without stage scheduling.
func TestAllocateMVEMatchesOracleOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules the whole suite on three machines")
	}
	for _, m := range []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedGP(4, 4, 2),
		machine.NewGrid4(2),
	} {
		for _, moved := range []bool{false, true} {
			ins, schs := suiteSchedules(t, m, 0, moved)
			if len(ins) < loopgen.DefaultCount*9/10 {
				t.Fatalf("%s: only %d of %d suite loops scheduled", m.Name, len(ins), loopgen.DefaultCount)
			}
			bad, unrolled := 0, 0
			for i := range ins {
				got, want := AllocateMVE(ins[i], schs[i]), allocateMVEOracle(ins[i], schs[i])
				if want.Factor > 1 {
					unrolled++
				}
				if !reflect.DeepEqual(got, want) {
					if bad++; bad <= 3 {
						t.Errorf("%s (stagesched %v) loop %d: allocation differs from the oracle:\n got %+v\nwant %+v",
							m.Name, moved, i, got, want)
					}
				}
			}
			if bad > 0 {
				t.Errorf("%s (stagesched %v): %d of %d allocations differ from the oracle", m.Name, moved, bad, len(ins))
			}
			if unrolled == 0 {
				t.Errorf("%s (stagesched %v): no kernel needed unrolling; the comparison never exercised factor > 1", m.Name, moved)
			}
		}
	}
}

// TestAllocateMVEMatchesOracleOnFixtures covers the corners the suite
// cannot reach: no values at all, and a machine whose middle cluster
// holds no value.
func TestAllocateMVEMatchesOracleOnFixtures(t *testing.T) {
	for name, fx := range map[string]func() (sched.Input, *sched.Schedule){
		"no values": func() (sched.Input, *sched.Schedule) {
			g := ddg.NewGraph(2, 0)
			g.AddNode(ddg.OpStore, "")
			g.AddNode(ddg.OpBranch, "")
			in := sched.Input{Graph: g, Machine: machine.NewBusedGP(2, 2, 1), II: 1}
			return in, &sched.Schedule{II: 1, CycleOf: []int{0, 0}}
		},
		"empty middle cluster": func() (sched.Input, *sched.Schedule) {
			ins, schs := suiteSchedules(t, machine.NewBusedGP(4, 4, 2), 1, false)
			in := ins[0]
			in.ClusterOf = append([]int(nil), in.ClusterOf...)
			for n, cl := range in.ClusterOf {
				if cl == 1 {
					in.ClusterOf[n] = 0
				}
			}
			in.CopyTargets = nil
			return in, schs[0]
		},
	} {
		in, s := fx()
		if got, want := AllocateMVE(in, s), allocateMVEOracle(in, s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: allocation differs from the oracle:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestAllocateMVEAllocs gates the one-pass allocator's allocation
// count on the largest of 40 stage-scheduled four-cluster kernels:
// lifetimes, the result and its register counts, the cluster bounds,
// the binding slab, its index block and the sort adapter — a constant,
// independent of how many clusters, values or registers there are.
func TestAllocateMVEAllocs(t *testing.T) {
	m := machine.NewBusedGP(4, 4, 2)
	ins, schs := suiteSchedules(t, m, 40, true)
	worst, most := 0, 0
	for i := range ins {
		if n := len(AllocateMVE(ins[i], schs[i]).Bindings); n > most {
			worst, most = i, n
		}
	}
	in, s := ins[worst], schs[worst]
	const limit = 10
	if a := testing.AllocsPerRun(50, func() { AllocateMVE(in, s) }); a > limit {
		t.Errorf("AllocateMVE allocates %.0f times per call on a %d-binding kernel, want <= %d",
			a, len(AllocateMVE(in, s).Bindings), limit)
	}
}

// BenchmarkAllocateMVE allocates registers for stage-scheduled suite
// kernels on gp-2c-2b-1p, the corpus-compile machine.
func BenchmarkAllocateMVE(b *testing.B) {
	ins, schs := suiteSchedules(b, machine.NewBusedGP(2, 2, 1), 100, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ins)
		AllocateMVE(ins[k], schs[k])
	}
}
