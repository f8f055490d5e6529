package emit

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
	"clustersched/internal/sched"
)

// kernelOracle is the reference rendering of Kernel: per-op label
// strings gathered into [slot][cluster] rows and formatted with fmt.
// Kernel must match it byte for byte.
func kernelOracle(in sched.Input, s *sched.Schedule) string {
	g := in.Graph
	label := func(n int) string {
		node := g.Nodes[n]
		if node.Name != "" {
			return fmt.Sprintf("%s:%s", node.Kind, node.Name)
		}
		return fmt.Sprintf("%s:n%d", node.Kind, n)
	}
	rows := make([][][]string, s.II) // [slot][cluster][]labels
	for i := range rows {
		rows[i] = make([][]string, in.Machine.NumClusters())
	}
	order := make([]int, g.NumNodes())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s.CycleOf[order[a]] < s.CycleOf[order[b]] })
	for _, n := range order {
		slot := ((s.CycleOf[n] % s.II) + s.II) % s.II
		stage := s.CycleOf[n] / s.II
		cl := clusterOf(in, n)
		lab := fmt.Sprintf("%s[s%d]", label(n), stage)
		if g.Nodes[n].Kind == ddg.OpCopy && in.CopyTargets != nil {
			lab += fmt.Sprintf("->%v", in.CopyTargets[n])
		}
		rows[slot][cl] = append(rows[slot][cl], lab)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "kernel: II=%d, stages=%d\n", s.II, s.StageCount())
	for slot := 0; slot < s.II; slot++ {
		fmt.Fprintf(&b, "  %2d:", slot)
		for cl, ops := range rows[slot] {
			if len(ops) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  c%d{%s}", cl, strings.Join(ops, " "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fixture builds a small clustered schedule with at least one copy.
func fixture(t *testing.T) (sched.Input, *sched.Schedule) {
	t.Helper()
	g := ddg.NewGraph(4, 3)
	a := g.AddNode(ddg.OpLoad, "a")
	b := g.AddNode(ddg.OpFMul, "b")
	c := g.AddNode(ddg.OpFAdd, "c")
	d := g.AddNode(ddg.OpStore, "d")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	g.AddEdge(c, d, 0)

	// Two single-unit clusters force a split and a copy at II=2.
	m := &machine.Config{
		Name:    "2x2",
		Network: machine.Broadcast,
		Buses:   2,
		Clusters: []machine.Cluster{
			machine.GPCluster(2, 1, 1),
			machine.GPCluster(2, 1, 1),
		},
		Latencies: machine.DefaultLatencies(),
	}
	for ii := 1; ii <= 8; ii++ {
		res, ok := assign.Run(g, m, ii, assign.Options{Variant: assign.HeuristicIterative})
		if !ok {
			continue
		}
		in := sched.Input{
			Graph:       res.Graph,
			Machine:     m,
			ClusterOf:   res.ClusterOf,
			CopyTargets: res.CopyTargets,
			II:          ii,
		}
		if s, ok := sched.IMS(in); ok {
			return in, s
		}
	}
	t.Fatal("fixture unschedulable")
	return sched.Input{}, nil
}

func TestKernelMentionsEveryOperation(t *testing.T) {
	in, s := fixture(t)
	out := Kernel(in, s)
	for _, name := range []string{"load:a", "fmul:b", "fadd:c", "store:d"} {
		if !strings.Contains(out, name) {
			t.Errorf("kernel missing %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "kernel: II=") {
		t.Errorf("kernel missing header:\n%s", out)
	}
}

func TestKernelHasIIRows(t *testing.T) {
	in, s := fixture(t)
	out := Kernel(in, s)
	rows := strings.Count(out, "\n") - 1 // minus header
	if rows != s.II {
		t.Errorf("kernel has %d rows, want II=%d:\n%s", rows, s.II, out)
	}
}

func TestKernelShowsStages(t *testing.T) {
	in, s := fixture(t)
	out := Kernel(in, s)
	if !strings.Contains(out, "[s0]") {
		t.Errorf("kernel missing stage tags:\n%s", out)
	}
}

func TestPipelinedStructure(t *testing.T) {
	in, s := fixture(t)
	out := Pipelined(in, s)
	for _, section := range []string{"prologue:", "kernel:", "epilogue:"} {
		if !strings.Contains(out, section) {
			t.Errorf("pipelined output missing %s:\n%s", section, out)
		}
	}
	// Prologue + epilogue each span (stages-1)*II rows.
	wantRows := (s.StageCount() - 1) * s.II
	pro := strings.SplitN(out, "kernel:", 2)[0]
	proRows := strings.Count(pro, "\n") - 2 // header lines
	if proRows != wantRows {
		t.Errorf("prologue rows = %d, want %d:\n%s", proRows, wantRows, pro)
	}
}

func TestPipelinedMentionsIterations(t *testing.T) {
	in, s := fixture(t)
	out := Pipelined(in, s)
	if s.StageCount() > 1 && !strings.Contains(out, "(i0)") {
		t.Errorf("prologue missing iteration tags:\n%s", out)
	}
}

func TestKernelUnifiedMachineSingleColumn(t *testing.T) {
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "x")
	b := g.AddNode(ddg.OpALU, "y")
	g.AddEdge(a, b, 0)
	m := machine.NewUnifiedGP(4)
	in := sched.Input{Graph: g, Machine: m, II: 1}
	s, ok := sched.IMS(in)
	if !ok {
		t.Fatal("unschedulable")
	}
	out := Kernel(in, s)
	if strings.Contains(out, "c1{") {
		t.Errorf("unified machine shows a second cluster:\n%s", out)
	}
}

func TestCopyLabelsShowTargets(t *testing.T) {
	in, s := fixture(t)
	hasCopy := false
	for n := 0; n < in.Graph.NumNodes(); n++ {
		if in.Graph.Nodes[n].Kind == ddg.OpCopy {
			hasCopy = true
		}
	}
	if !hasCopy {
		t.Skip("fixture produced no copies this time")
	}
	out := Kernel(in, s)
	if !strings.Contains(out, "copy:") || !strings.Contains(out, "->[") {
		t.Errorf("copy targets not rendered:\n%s", out)
	}
}

func TestGanttShowsUtilization(t *testing.T) {
	in, s := fixture(t)
	out := Gantt(in, s)
	for _, want := range []string{"kernel occupancy", "c0", "c1", "% of", "(digit"} {
		if !strings.Contains(out, want) {
			t.Errorf("Gantt missing %q:\n%s", want, out)
		}
	}
	// Row length: every cluster line spans the II slots.
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestGanttFullRowMarker(t *testing.T) {
	// A single-unit cluster issuing every slot shows '#'.
	g := ddg.NewGraph(2, 1)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpALU, "")
	g.AddEdge(a, b, 0)
	m := &machine.Config{
		Name:      "1x1",
		Network:   machine.Broadcast,
		Clusters:  []machine.Cluster{machine.GPCluster(1, 0, 0)},
		Latencies: machine.DefaultLatencies(),
	}
	in := sched.Input{Graph: g, Machine: m, II: 2}
	s, ok := sched.IMS(in)
	if !ok {
		t.Fatal("unschedulable")
	}
	out := Gantt(in, s)
	if !strings.Contains(out, "#") || !strings.Contains(out, "100%") {
		t.Errorf("full utilization not marked:\n%s", out)
	}
}

// suiteKernels schedules count loops of the Table-1 suite on m and
// returns the scheduler input and schedule of every loop that
// scheduled.
func suiteKernels(tb testing.TB, m *machine.Config, count int) ([]sched.Input, []*sched.Schedule) {
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
		ins = append(ins, sched.Input{
			Graph:       out.Assignment.Graph,
			Machine:     m,
			ClusterOf:   out.Assignment.ClusterOf,
			CopyTargets: out.Assignment.CopyTargets,
			II:          out.II,
		})
		schs = append(schs, out.Schedule)
	}
	return ins, schs
}

// TestKernelMatchesOracleOnSuite renders every kernel of the Table-1
// suite on the three headline machines and requires Kernel to equal
// the fmt-based oracle byte for byte.
func TestKernelMatchesOracleOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules the whole suite on three machines")
	}
	for _, m := range []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedGP(4, 4, 2),
		machine.NewGrid4(2),
	} {
		ins, schs := suiteKernels(t, m, 0)
		if len(ins) < loopgen.DefaultCount*9/10 {
			t.Fatalf("%s: only %d of %d suite loops scheduled", m.Name, len(ins), loopgen.DefaultCount)
		}
		bad := 0
		for i := range ins {
			if got, want := Kernel(ins[i], schs[i]), kernelOracle(ins[i], schs[i]); got != want {
				if bad++; bad <= 3 {
					t.Errorf("%s kernel %d differs from the oracle:\ngot:\n%s\nwant:\n%s", m.Name, i, got, want)
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d kernels differ from the oracle", m.Name, bad, len(ins))
		}
	}
}

// wideFixture is a hand-built kernel for the corners the suite may
// miss: unnamed nodes (n%d labels), II >= 10 (two-digit slot rows next
// to padded one-digit ones), copies with several targets or none, many
// ops tied on one cycle, stages above 9, and a cluster left empty.
func wideFixture() (sched.Input, *sched.Schedule) {
	g := ddg.NewGraph(24, 0)
	kinds := []ddg.OpKind{ddg.OpLoad, ddg.OpFMul, ddg.OpALU, ddg.OpStore, ddg.OpCopy, ddg.OpFAdd}
	for i := 0; i < 24; i++ {
		name := ""
		if i%3 == 0 {
			name = fmt.Sprintf("v%d", i)
		}
		g.AddNode(kinds[i%len(kinds)], name)
	}
	m := machine.NewBusedGP(4, 2, 1)
	const ii = 12
	in := sched.Input{
		Graph:       g,
		Machine:     m,
		ClusterOf:   make([]int, 24),
		CopyTargets: make([][]int, 24),
		II:          ii,
	}
	s := &sched.Schedule{II: ii, CycleOf: make([]int, 24)}
	for i := 0; i < 24; i++ {
		in.ClusterOf[i] = (i * 5) % 3   // cluster 3 stays empty
		s.CycleOf[i] = (i * 7) % 5 * 31 // ties, slots 0..11, stages up to 10
		if g.Nodes[i].Kind == ddg.OpCopy {
			in.CopyTargets[i] = []int{1, 2, 3}[:(i/6)%4]
		}
	}
	return in, s
}

func TestKernelMatchesOracleOnFixtures(t *testing.T) {
	in, s := fixture(t)
	if got, want := Kernel(in, s), kernelOracle(in, s); got != want {
		t.Errorf("fixture kernel:\ngot:\n%s\nwant:\n%s", got, want)
	}
	win, ws := wideFixture()
	got, want := Kernel(win, ws), kernelOracle(win, ws)
	if got != want {
		t.Errorf("wide fixture kernel:\ngot:\n%s\nwant:\n%s", got, want)
	}
	for _, sub := range []string{"   9:", "  10:", "  11:", ":n1[", "->[1 2 3]", "->[]", "[s10]"} {
		if !strings.Contains(got, sub) {
			t.Errorf("wide fixture kernel lacks %q:\n%s", sub, got)
		}
	}
	// Without copy targets a copy carries no arrow at all.
	win.CopyTargets = nil
	if got, want := Kernel(win, ws), kernelOracle(win, ws); got != want || strings.Contains(got, "->") {
		t.Errorf("kernel without copy targets:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestKernelAllocs gates Kernel's allocations per call: the index
// buffer, sort.Slice's bookkeeping, and the one pre-sized text buffer.
func TestKernelAllocs(t *testing.T) {
	in, s := fixture(t)
	win, ws := wideFixture()
	for name, f := range map[string]func(){
		"fixture": func() { Kernel(in, s) },
		"wide":    func() { Kernel(win, ws) },
	} {
		if a := testing.AllocsPerRun(100, f); a > 10 {
			t.Errorf("%s: Kernel allocates %.0f times per call, want <= 10", name, a)
		}
	}
}

// BenchmarkKernel renders suite kernels scheduled on gp-2c-2b-1p.
func BenchmarkKernel(b *testing.B) {
	ins, schs := suiteKernels(b, machine.NewBusedGP(2, 2, 1), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ins)
		Kernel(ins[k], schs[k])
	}
}
