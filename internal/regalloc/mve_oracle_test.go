package regalloc

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
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

// validateOracle is the map-based check Validate replaced: bindings
// grouped per (cluster, register) in a map of slices, the groups
// checked in map order. It indexes RegsPerCluster without a bounds
// check, so it only sees bindings on the machine's clusters.
func validateOracle(a *Allocation, in sched.Input, s *sched.Schedule) error {
	circle := a.Factor * s.II
	wantInstances := len(Lifetimes(in, s)) * a.Factor
	if len(a.Bindings) != wantInstances {
		return fmt.Errorf("regalloc: %d bindings for %d value instances", len(a.Bindings), wantInstances)
	}
	type key struct{ cluster, reg int }
	byReg := map[key][]Binding{}
	for _, b := range a.Bindings {
		if b.Register < 0 || b.Register >= a.RegsPerCluster[b.Cluster] {
			return fmt.Errorf("regalloc: value %d instance %d register %d out of range", b.Value, b.Instance, b.Register)
		}
		byReg[key{b.Cluster, b.Register}] = append(byReg[key{b.Cluster, b.Register}], b)
	}
	for k, arcs := range byReg {
		for i := 0; i < len(arcs); i++ {
			for j := i + 1; j < len(arcs); j++ {
				if arcsOverlap(arcs[i].arcStart(s.II, circle), arcs[i].Len,
					arcs[j].arcStart(s.II, circle), arcs[j].Len, circle) {
					return fmt.Errorf("regalloc: cluster %d register %d double-booked by values %d/%d and %d/%d",
						k.cluster, k.reg, arcs[i].Value, arcs[i].Instance, arcs[j].Value, arcs[j].Instance)
				}
			}
		}
	}
	return nil
}

// cloneAlloc deep-copies an allocation for corruption.
func cloneAlloc(a *Allocation) *Allocation {
	return &Allocation{
		Factor:         a.Factor,
		RegsPerCluster: append([]int(nil), a.RegsPerCluster...),
		Bindings:       append([]Binding(nil), a.Bindings...),
	}
}

// doubleBook moves one binding onto the register of an overlapping arc
// of the same cluster, double-booking exactly that register. With high
// set it picks the cluster's highest register it can, else the first
// overlapping pair. It reports false when no two arcs on different
// registers overlap.
func doubleBook(a *Allocation, ii int, high bool) bool {
	circle := a.Factor * ii
	bi, bj := -1, -1
	for i := range a.Bindings {
		for j := range a.Bindings {
			x, y := &a.Bindings[i], &a.Bindings[j]
			if x.Cluster != y.Cluster || x.Register == y.Register ||
				!arcsOverlap(x.arcStart(ii, circle), x.Len, y.arcStart(ii, circle), y.Len, circle) {
				continue
			}
			if bi < 0 || (high && x.Register > a.Bindings[bi].Register) {
				bi, bj = i, j
			}
			if !high {
				break
			}
		}
		if bi >= 0 && !high {
			break
		}
	}
	if bi < 0 {
		return false
	}
	a.Bindings[bj].Register = a.Bindings[bi].Register
	return true
}

// TestValidateMatchesOracleOnSuite compares Validate's verdict and
// message with the map-based oracle's on every MVE allocation of the
// stage-scheduled suite on three machines: clean, with one register
// double-booked (the first overlapping pair's, or the highest
// register one can be), with a register out of range, and with a
// binding missing.
func TestValidateMatchesOracleOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules the whole suite on three machines")
	}
	for _, m := range []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedGP(4, 4, 2),
		machine.NewGrid4(2),
	} {
		ins, schs := suiteSchedules(t, m, 0, true)
		booked := 0
		for i := range ins {
			in, s := ins[i], schs[i]
			clean := AllocateMVE(in, s)
			cases := map[string]*Allocation{"clean": clean}
			if a := cloneAlloc(clean); doubleBook(a, s.II, false) {
				cases["double-booked"] = a
				booked++
			}
			if a := cloneAlloc(clean); doubleBook(a, s.II, true) {
				cases["double-booked high"] = a
			}
			if len(clean.Bindings) > 0 {
				a := cloneAlloc(clean)
				b := &a.Bindings[len(a.Bindings)/2]
				b.Register = a.RegsPerCluster[b.Cluster]
				cases["out of range"] = a
				a = cloneAlloc(clean)
				a.Bindings = a.Bindings[1:]
				cases["missing binding"] = a
			}
			for name, a := range cases {
				got, want := a.Validate(in, s), validateOracle(a, in, s)
				if fmt.Sprint(got) != fmt.Sprint(want) || (name == "clean") != (got == nil) {
					t.Fatalf("%s loop %d %s: Validate %v, oracle %v", m.Name, i, name, got, want)
				}
			}
		}
		if booked < len(ins)/2 {
			t.Errorf("%s: only %d of %d allocations could be double-booked", m.Name, booked, len(ins))
		}
	}
}

// TestValidateRejectsBadCluster: a binding whose cluster is off the
// machine is an out-of-range error, not an index panic.
func TestValidateRejectsBadCluster(t *testing.T) {
	ins, schs := suiteSchedules(t, machine.NewBusedGP(2, 2, 1), 1, false)
	in, s := ins[0], schs[0]
	for _, cl := range []int{-1, 2, 1 << 30} {
		a := cloneAlloc(AllocateMVE(in, s))
		a.Bindings[0].Cluster = cl
		want := fmt.Sprintf("regalloc: value %d instance %d cluster %d out of range",
			a.Bindings[0].Value, a.Bindings[0].Instance, cl)
		if err := a.Validate(in, s); err == nil || err.Error() != want {
			t.Errorf("cluster %d: %v, want %q", cl, err, want)
		}
	}
}

// TestValidateReportsLowestDoubleBooking: with two registers
// double-booked, every call names the lower (cluster, register).
func TestValidateReportsLowestDoubleBooking(t *testing.T) {
	ins, schs := suiteSchedules(t, machine.NewBusedGP(2, 2, 1), 40, true)
	for i := range ins {
		in, s := ins[i], schs[i]
		a := AllocateMVE(in, s)
		if a.RegsPerCluster[0] < 4 {
			continue
		}
		// Every arc of cluster 0 onto register 0 or register 2 by parity;
		// in upper, the even arcs go back to their own registers.
		bad, upper := cloneAlloc(a), cloneAlloc(a)
		n := 0
		for k := range bad.Bindings {
			if b := &bad.Bindings[k]; b.Cluster == 0 {
				b.Register = 2 * (n % 2)
				if n%2 == 1 {
					upper.Bindings[k].Register = 2
				}
				n++
			}
		}
		first, second := bad.Validate(in, s), upper.Validate(in, s)
		if first == nil || !strings.Contains(first.Error(), "cluster 0 register 0 double-booked") ||
			second == nil || !strings.Contains(second.Error(), "cluster 0 register 2 double-booked") {
			continue // the arcs of one parity happen not to overlap
		}
		for call := 0; call < 50; call++ {
			if err := bad.Validate(in, s); err == nil || err.Error() != first.Error() {
				t.Fatalf("call %d: %v, first call %v", call, err, first)
			}
		}
		if err := validateOracle(bad, in, s); err == nil {
			t.Fatalf("oracle accepts the double-booked allocation")
		}
		return
	}
	t.Fatal("no suite kernel yielded two double-booked registers")
}

// TestValidateAllocs: a passing check allocates only its slab.
func TestValidateAllocs(t *testing.T) {
	ins, schs := suiteSchedules(t, machine.NewBusedGP(4, 4, 2), 40, true)
	for i := range ins {
		in, s := ins[i], schs[i]
		a := AllocateMVE(in, s)
		if n := testing.AllocsPerRun(20, func() {
			if err := a.Validate(in, s); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Fatalf("loop %d: Validate allocates %.0f times, want <= 1", i, n)
		}
	}
}
