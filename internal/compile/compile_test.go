package compile

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/frontend"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
	"clustersched/internal/sched"
	"clustersched/internal/sim"
)

// testOptions mirrors the library facade's defaults: the paper's full
// assignment algorithm with stats collection on.
func testOptions() Options {
	return Options{
		Pipeline: pipeline.Options{
			Assign:       assign.Options{Variant: assign.HeuristicIterative},
			CollectStats: true,
		},
	}
}

func corpus(t testing.TB) []frontend.Loop {
	t.Helper()
	loops, err := Corpus()
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	if len(loops) < 30 {
		t.Fatalf("corpus has %d loops, want >= 30 (Livermore + generated)", len(loops))
	}
	return loops
}

// TestCorpusMatchesGenerator pins the checked-in corpus to its
// generator: any frontend, lint, or loopgen change that would alter
// the mined corpus must regenerate the constant.
func TestCorpusMatchesGenerator(t *testing.T) {
	if got := loopgen.SourceCorpus(CorpusSeed, CorpusCount); got != corpusSource {
		t.Fatalf("corpusSource does not match loopgen.SourceCorpus(%d, %d); regenerate internal/compile/corpus.go", CorpusSeed, CorpusCount)
	}
}

// render flattens the deterministic portion of a result for
// byte-comparison across worker counts.
func render(res *Result) string {
	var b strings.Builder
	for i := range res.Loops {
		l := &res.Loops[i]
		fmt.Fprintf(&b, "=== %d %s (line %d) ===\n", l.Index, l.Name, l.Line)
		if l.Err != nil {
			fmt.Fprintf(&b, "error: %v\n", l.Err)
			continue
		}
		fmt.Fprintf(&b, "II=%d MII=%d copies=%d moved=%d regs=%v factor=%d\n",
			l.Outcome.II, l.Outcome.MII, l.Outcome.Assignment.Copies, l.Moved,
			l.Alloc.RegsPerCluster, l.Alloc.Factor)
		b.WriteString(l.Text)
	}
	return b.String()
}

// TestRunDeterministicAcrossWorkers is the tentpole's ordering
// contract: worker count and buffer depth change wall-clock time
// only. Emitted text, IIs, allocations, stats, and the Emit callback
// sequence must be byte-identical.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	loops := corpus(t)
	m := machine.NewBusedGP(2, 2, 1)

	type variant struct{ workers, buffer int }
	var base *Result
	var baseEmit []int
	for _, v := range []variant{{1, 1}, {4, 2}, {4, 8}, {8, 3}} {
		opts := testOptions()
		opts.Workers = v.workers
		opts.Buffer = v.buffer
		opts.StageSched = true
		var emitted []int
		opts.Emit = func(l *LoopResult) { emitted = append(emitted, l.Index) }
		res, err := NewExecutor(m, opts).Run(context.Background(), loops)
		if err != nil {
			t.Fatalf("workers=%d: %v", v.workers, err)
		}
		for i, idx := range emitted {
			if idx != i {
				t.Fatalf("workers=%d: emit order %v is not input order", v.workers, emitted)
			}
		}
		if base == nil {
			base, baseEmit = res, emitted
			continue
		}
		if len(emitted) != len(baseEmit) {
			t.Fatalf("workers=%d: %d emit callbacks, want %d", v.workers, len(emitted), len(baseEmit))
		}
		if got, want := render(res), render(base); got != want {
			t.Fatalf("workers=%d buffer=%d output differs from workers=1:\n%s", v.workers, v.buffer, firstDiff(got, want))
		}
		// Wall-clock durations vary run to run; every search-effort
		// counter must not.
		gs, bs := res.Stats, base.Stats
		gs.MIITime, gs.AssignTime, gs.SchedTime = 0, 0, 0
		bs.MIITime, bs.AssignTime, bs.SchedTime = 0, 0, 0
		if gs != bs {
			t.Fatalf("workers=%d: aggregated search stats differ from workers=1:\n got %+v\nwant %+v", v.workers, gs, bs)
		}
	}
	if base.Failed != 0 {
		t.Fatalf("%d corpus loops failed to compile", base.Failed)
	}
}

func firstDiff(a, b string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first difference at byte %d:\n  got  ...%q\n  want ...%q", i, a[lo:i+40], b[lo:i+40])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
}

// TestCorpusSchedulesAndSimValidates is the corpus acceptance gate:
// every loop schedules on both reference machines and every emitted
// kernel passes the sim functional oracle, with and without stage
// scheduling.
func TestCorpusSchedulesAndSimValidates(t *testing.T) {
	loops := corpus(t)
	for _, tc := range []struct {
		m          *machine.Config
		stagesched bool
	}{
		{machine.NewBusedGP(2, 2, 1), false},
		{machine.NewBusedGP(2, 2, 1), true},
		{machine.NewBusedFS(4, 4, 2), true},
	} {
		opts := testOptions()
		opts.Validate = true
		opts.StageSched = tc.stagesched
		opts.Workers = 2
		res, err := NewExecutor(tc.m, opts).Run(context.Background(), loops)
		if err != nil {
			t.Fatalf("%s: %v", tc.m.Name, err)
		}
		for i := range res.Loops {
			if e := res.Loops[i].Err; e != nil {
				t.Errorf("%s (stagesched=%v): loop %s: %v", tc.m.Name, tc.stagesched, res.Loops[i].Name, e)
			}
		}
		if res.Scheduled != len(loops) {
			t.Fatalf("%s: scheduled %d of %d corpus loops", tc.m.Name, res.Scheduled, len(loops))
		}
	}
}

// TestLivermoreValueDifferential checks, for every Livermore kernel on
// two machine configs, that the emitted pipelined schedule computes
// exactly the values of a naive non-pipelined execution: copy
// insertion is value-transparent, and the scheduled kernel under its
// MVE binding reproduces the naive trace node for node, iteration for
// iteration.
func TestLivermoreValueDifferential(t *testing.T) {
	loops := corpus(t)
	for _, m := range []*machine.Config{machine.NewBusedGP(2, 2, 1), machine.NewBusedFS(4, 4, 2)} {
		opts := testOptions()
		e := NewExecutor(m, opts)
		for _, l := range loops {
			if !strings.HasPrefix(l.Name, "lfk") {
				continue
			}
			r := e.One(context.Background(), l)
			if r.Err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, r.Err)
			}
			in, sch := schedInput(e, r)
			iters := 3*r.Alloc.Factor + 4
			naiveOrig := sim.NaiveValues(l.Graph, iters)
			naiveAnn := sim.NaiveValues(in.Graph, iters)
			pipe, err := sim.PipelinedValues(in, sch, iters, sim.MVEBinding(r.Alloc))
			if err != nil {
				t.Fatalf("%s on %s: pipelined execution: %v", l.Name, m.Name, err)
			}
			for it := 0; it < iters; it++ {
				for n := 0; n < l.Graph.NumNodes(); n++ {
					if naiveOrig[it][n] != naiveAnn[it][n] {
						t.Fatalf("%s on %s: copy insertion changed node %d's value at iteration %d", l.Name, m.Name, n, it)
					}
				}
				for n := 0; n < in.Graph.NumNodes(); n++ {
					if naiveAnn[it][n] != pipe[it][n] {
						t.Fatalf("%s on %s: node %d iteration %d: pipelined value diverges from naive execution", l.Name, m.Name, n, it)
					}
				}
			}
		}
	}
}

// TestOneMatchesRun: the sequential single-loop path (the server's
// entry point) must agree with the streaming batch path.
func TestOneMatchesRun(t *testing.T) {
	loops := corpus(t)[:6]
	m := machine.NewBusedGP(2, 2, 1)
	opts := testOptions()
	opts.StageSched = true
	e := NewExecutor(m, opts)
	batch, err := e.Run(context.Background(), loops)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range loops {
		one := e.One(context.Background(), l)
		if one.Err != nil {
			t.Fatalf("%s: %v", l.Name, one.Err)
		}
		b := &batch.Loops[i]
		if one.Text != b.Text || one.Outcome.II != b.Outcome.II || one.Moved != b.Moved ||
			one.Alloc.Factor != b.Alloc.Factor {
			t.Fatalf("%s: One result differs from Run result", l.Name)
		}
	}
}

// TestRunCanceled: a dead context drains the pipeline; every loop is
// marked canceled and Run reports the cancellation.
func TestRunCanceled(t *testing.T) {
	loops := corpus(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := testOptions()
	opts.Workers = 4
	res, err := NewExecutor(machine.NewBusedGP(2, 2, 1), opts).Run(ctx, loops)
	if err == nil {
		t.Fatal("Run with a canceled context returned nil error")
	}
	if res == nil {
		t.Fatal("Run must still assemble a result on cancellation")
	}
	for i := range res.Loops {
		if res.Loops[i].Err == nil {
			t.Fatalf("loop %s finished despite pre-canceled context", res.Loops[i].Name)
		}
	}
	if res.Failed != len(loops) {
		t.Fatalf("Failed = %d, want %d", res.Failed, len(loops))
	}
}

// TestSourceCompilesUnit: the Source convenience front door measures
// the frontend and reports per-stage stats.
func TestSourceCompilesUnit(t *testing.T) {
	src := "loop dot { s = s + a[i]*b[i] }\nloop ax { y[i] = 2*x[i] + y[i] }\n"
	opts := testOptions()
	res, err := Source(context.Background(), src, machine.NewBusedGP(2, 2, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 2 || res.Failed != 0 {
		t.Fatalf("scheduled %d failed %d, want 2/0", res.Scheduled, res.Failed)
	}
	if res.FrontendNS <= 0 {
		t.Error("FrontendNS not measured")
	}
	seen := map[string]bool{}
	for _, st := range res.Stages {
		seen[st.Stage] = true
		if st.Loops != 2 {
			t.Errorf("stage %s processed %d loops, want 2", st.Stage, st.Loops)
		}
	}
	for _, want := range []string{"schedule", "regalloc", "emit"} {
		if !seen[want] {
			t.Errorf("missing stage row %q in %+v", want, res.Stages)
		}
	}
	if seen["stagesched"] || seen["validate"] {
		t.Errorf("disabled stages reported work: %+v", res.Stages)
	}
}

// schedInput rebuilds the sched.Input a LoopResult's schedule ran
// under (the executor's own recipe).
func schedInput(e *Executor, r *LoopResult) (sched.Input, *sched.Schedule) {
	return sched.Input{
		Graph:       r.Outcome.Assignment.Graph,
		Machine:     e.Machine(),
		ClusterOf:   r.Outcome.Assignment.ClusterOf,
		CopyTargets: r.Outcome.Assignment.CopyTargets,
		II:          r.Outcome.II,
	}, r.Outcome.Schedule
}

// TestSourceMatchesFrontendPlusRun: building the graphs on the workers
// changes nothing — Source at every worker count equals the serial
// frontend.Compile followed by Run, loop by loop, graphs included.
func TestSourceMatchesFrontendPlusRun(t *testing.T) {
	src := GeneratedSource()
	m := machine.NewBusedGP(2, 2, 1)
	loops, err := frontend.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.StageSched = true
	want, err := NewExecutor(m, opts).Run(context.Background(), loops)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		opts.Workers = w
		var emitted []int
		opts.Emit = func(l *LoopResult) { emitted = append(emitted, l.Index) }
		got, err := Source(context.Background(), src, m, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(emitted) != len(loops) {
			t.Errorf("workers=%d: %d emit callbacks, want %d", w, len(emitted), len(loops))
		}
		for i := range loops {
			g, l := got.Loops[i].Graph, loops[i]
			if got.Loops[i].Name != l.Name || got.Loops[i].Line != l.Line ||
				!reflect.DeepEqual(g.Nodes, l.Graph.Nodes) || !reflect.DeepEqual(g.Edges, l.Graph.Edges) {
				t.Fatalf("workers=%d: loop %d (%s) graph differs from frontend.Compile's", w, i, l.Name)
			}
		}
		if g, w2 := render(got), render(want); g != w2 {
			t.Fatalf("workers=%d: Source output differs from frontend.Compile + Run:\n%s", w, firstDiff(g, w2))
		}
	}
}

// TestSourceBuildFailureFailsUnit: when loop k's graph build fails,
// Source returns that error — the first in source order, even though
// a later loop fails too and the builds run in parallel — with no
// result and no Emit callback, exactly as the serial frontend did.
func TestSourceBuildFailureFailsUnit(t *testing.T) {
	src := GeneratedSource()
	loops, err := frontend.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	if len(loops) < k+4 {
		t.Fatalf("corpus has %d loops, want > %d", len(loops), k+3)
	}
	t.Cleanup(func() { buildLoop = (*frontend.Parsed).Build })
	buildLoop = func(p *frontend.Parsed) (frontend.Loop, error) {
		for _, i := range []int{k, k + 3} {
			if p.Name() == loops[i].Name {
				return frontend.Loop{}, fmt.Errorf("injected build failure in loop %d", i)
			}
		}
		return p.Build()
	}
	for _, w := range []int{1, 2, 4} {
		opts := testOptions()
		opts.Workers = w
		emitted := 0
		opts.Emit = func(*LoopResult) { emitted++ }
		res, err := Source(context.Background(), src, machine.NewBusedGP(2, 2, 1), opts)
		if err == nil || err.Error() != fmt.Sprintf("injected build failure in loop %d", k) {
			t.Errorf("workers=%d: error %v, want loop %d's build failure", w, err, k)
		}
		if res != nil || emitted != 0 {
			t.Errorf("workers=%d: failed unit returned a result (%v) or emitted %d loops", w, res != nil, emitted)
		}
	}
	// A parse error is reported as the frontend reports it.
	bad := src + "\nloop broken { a[j] = 1.0 }\n"
	_, want := frontend.Compile(bad)
	if _, err := Source(context.Background(), bad, machine.NewBusedGP(2, 2, 1), testOptions()); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("parse error %v, want %v", err, want)
	}
}
