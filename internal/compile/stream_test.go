package compile

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"clustersched/internal/frontend"
	"clustersched/internal/livermore"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/obs"
)

// countSchedules makes opts count the loops the schedule stage starts
// on: each Session.Schedule opens exactly one MII phase.
func countSchedules(opts *Options) *atomic.Int64 {
	var n atomic.Int64
	opts.Pipeline.Observer = obs.ObserverFunc(func(e obs.Event) {
		if e.Kind == obs.KindPhaseBegin && e.Phase == obs.PhaseMII {
			n.Add(1)
		}
	})
	return &n
}

// TestSourceParseErrorFailsUnit: a syntax error in a middle loop fails
// the unit with frontend.Compile's error, a nil result and no Emit,
// and no loop after it is scheduled, at every worker count: the parser
// stops at the error, so the loops after it never reach a builder.
func TestSourceParseErrorFailsUnit(t *testing.T) {
	kernels, err := livermore.Kernels()
	if err != nil {
		t.Fatal(err)
	}
	k := len(kernels)
	src := livermore.Source() + "loop broken { a[j] = 1.0 }\n" + GeneratedSource()
	_, want := frontend.Compile(src)
	if want == nil {
		t.Fatal("frontend.Compile accepted the broken unit")
	}
	for _, w := range []int{1, 2, 4} {
		opts := testOptions()
		opts.Workers = w
		scheduled := countSchedules(&opts)
		emitted := 0
		opts.Emit = func(*LoopResult) { emitted++ }
		res, err := Source(context.Background(), src, machine.NewBusedGP(2, 2, 1), opts)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("workers=%d: error %v, want %v", w, err, want)
		}
		if res != nil || emitted != 0 {
			t.Errorf("workers=%d: failed unit returned a result (%v) or emitted %d loops", w, res != nil, emitted)
		}
		if n := scheduled.Load(); n > int64(k) {
			t.Errorf("workers=%d: %d loops scheduled, but only %d precede the syntax error", w, n, k)
		}
	}
}

// TestSourceBuildErrorStopsLaterLoops: a build error in a middle loop
// fails the unit with frontend.Compile's error and no Emit. On one
// worker the builds run in input order, so no loop after the failed
// one is built or scheduled; on more, a loop after it can be in flight
// when it fails, and the unit's answer must not change.
func TestSourceBuildErrorStopsLaterLoops(t *testing.T) {
	src := livermore.Source() + GeneratedSource()
	loops, err := frontend.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	k := len(loops) / 2
	want := fmt.Errorf("frontend: loop %q: injected build failure", loops[k].Name)
	t.Cleanup(func() { buildLoop = (*frontend.Parsed).Build })
	var built atomic.Int64
	buildLoop = func(p *frontend.Parsed) (frontend.Loop, error) {
		if p.Name() == loops[k].Name {
			return frontend.Loop{}, want
		}
		built.Add(1)
		return p.Build()
	}
	for _, w := range []int{1, 2, 4} {
		built.Store(0)
		opts := testOptions()
		opts.Workers = w
		scheduled := countSchedules(&opts)
		emitted := 0
		opts.Emit = func(*LoopResult) { emitted++ }
		res, err := Source(context.Background(), src, machine.NewBusedGP(2, 2, 1), opts)
		if err != want {
			t.Errorf("workers=%d: error %v, want %v", w, err, want)
		}
		if res != nil || emitted != 0 {
			t.Errorf("workers=%d: failed unit returned a result (%v) or emitted %d loops", w, res != nil, emitted)
		}
		if w == 1 && (built.Load() > int64(k) || scheduled.Load() > int64(k)) {
			t.Errorf("workers=1: %d loops built and %d scheduled, but only %d precede the failed build",
				built.Load(), scheduled.Load(), k)
		}
	}
}

// TestSourceCanceledWhileParsing: a context that is dead before the
// parser starts returns at once with every loop marked canceled, no
// loop built and no Emit. On one worker, a context canceled by the
// build of a middle loop cancels every loop after it, and no Emit
// fires because the frontend never built every loop; on more workers
// the loops in flight may finish first, so every loop ends finished or
// canceled.
func TestSourceCanceledWhileParsing(t *testing.T) {
	src := livermore.Source() + GeneratedSource()
	loops, err := frontend.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	k := len(loops) / 2
	var cancel context.CancelFunc
	t.Cleanup(func() { buildLoop = (*frontend.Parsed).Build })
	var built atomic.Int64
	buildLoop = func(p *frontend.Parsed) (frontend.Loop, error) {
		if p.Name() == loops[k].Name {
			cancel()
		}
		built.Add(1)
		return p.Build()
	}
	for _, dead := range []bool{true, false} {
		for _, w := range []int{1, 4} {
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			if dead {
				cancel()
			}
			built.Store(0)
			opts := testOptions()
			opts.Workers = w
			emitted := 0
			opts.Emit = func(*LoopResult) { emitted++ }
			res, err := Source(ctx, src, machine.NewBusedGP(2, 2, 1), opts)
			cancel()
			if !errors.Is(err, context.Canceled) || res == nil || len(res.Loops) != len(loops) {
				t.Fatalf("dead=%v workers=%d: error %v, result %v; want a canceled unit of %d loops", dead, w, err, res != nil, len(loops))
			}
			strict := dead || w == 1
			if strict && emitted != 0 {
				t.Errorf("dead=%v workers=%d: %d loops emitted, want none", dead, w, emitted)
			}
			if n := built.Load(); dead && n != 0 {
				t.Errorf("workers=%d: %d loops built under a dead context", w, n)
			}
			for i, l := range res.Loops {
				canceled := errors.Is(l.Err, context.Canceled)
				mustCancel := dead || (w == 1 && i > k)
				if mustCancel && !canceled || !canceled && l.Err != nil {
					t.Fatalf("dead=%v workers=%d: loop %d error %v, want canceled", dead, w, i, l.Err)
				}
			}
		}
	}
}

// TestSourceSmallUnits: a unit of one loop compiles like
// frontend.Compile + Run and emits once; sources without a loop fail
// with frontend.Compile's error and no result, as does trailing text
// after the last loop.
func TestSourceSmallUnits(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1)
	one := "\n\nloop dot { s = s + a[i]*b[i] }\n\n"
	loops, err := frontend.Compile(one)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewExecutor(m, testOptions()).Run(context.Background(), loops)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	var emitted []int
	opts.Emit = func(l *LoopResult) { emitted = append(emitted, l.Index) }
	got, err := Source(context.Background(), one, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) || len(emitted) != 1 || got.Scheduled != 1 || got.FrontendNS <= 0 {
		t.Errorf("one-loop unit: emitted %v, scheduled %d, frontend %d ns; output\n%s\nwant\n%s",
			emitted, got.Scheduled, got.FrontendNS, render(got), render(want))
	}
	for _, src := range []string{"", "\n\n", "x = 1\n", "loop a { x = 1 }\n}\n", "loop a { x = 1 }\nloop", "@"} {
		_, want := frontend.Compile(src)
		res, err := Source(context.Background(), src, m, testOptions())
		if want == nil || err == nil || err.Error() != want.Error() || res != nil {
			t.Errorf("%q: error %v, result %v; want %v", src, err, res != nil, want)
		}
	}
}

// dump renders every field of a result a compile determines: per loop
// the input graph, II, MII, copies, placement, cycles, search counters,
// stage moves, the whole MVE allocation and the kernel text.
func dump(res *Result) string {
	var b strings.Builder
	for i := range res.Loops {
		l := &res.Loops[i]
		fmt.Fprintf(&b, "=== %d %s line %d\nnodes", l.Index, l.Name, l.Line)
		for _, n := range l.Graph.Nodes {
			fmt.Fprintf(&b, " %+v", *n)
		}
		fmt.Fprintf(&b, "\nedges %v\n", l.Graph.Edges)
		if l.Err != nil {
			fmt.Fprintf(&b, "error: %v\n", l.Err)
			continue
		}
		o := l.Outcome
		st := o.Stats
		st.MIITime, st.AssignTime, st.SchedTime = 0, 0, 0
		fmt.Fprintf(&b, "II %d MII %d copies %d moved %d\ncluster %v\ncycle %v\nstats %+v\nalloc %+v\n%s\n",
			o.II, o.MII, o.Assignment.Copies, l.Moved, o.Assignment.ClusterOf, o.Schedule.CycleOf, st, *l.Alloc, l.Text)
	}
	return b.String()
}

// TestSourceStress holds Source to frontend.Compile + Run on one worker
// over Livermore and a 96-program unit, on four machines, at every
// combination of worker count, stage scheduling and
// validation. The race pass runs it too.
func TestSourceStress(t *testing.T) {
	src := livermore.Source() + loopgen.SourceCorpus(CorpusSeed, 96)
	loops, err := frontend.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*machine.Config{
		machine.NewBusedGP(2, 2, 1), machine.NewBusedFS(4, 4, 2), machine.NewBusedGP(4, 4, 2), machine.NewGrid4(2),
	} {
		for _, stages := range []bool{false, true} {
			for _, validate := range []bool{false, true} {
				opts := testOptions()
				opts.StageSched, opts.Validate = stages, validate
				opts.Workers = 1
				ref, err := NewExecutor(m, opts).Run(context.Background(), loops)
				if err != nil {
					t.Fatal(err)
				}
				want := dump(ref)
				for _, w := range []int{1, 2, 4} {
					opts.Workers = w
					next := 0
					opts.Emit = func(l *LoopResult) {
						if l.Index != next {
							t.Errorf("%s workers=%d: emitted loop %d, want %d", m.Name, w, l.Index, next)
						}
						next++
					}
					got, err := Source(context.Background(), src, m, opts)
					if err != nil {
						t.Fatal(err)
					}
					if g := dump(got); g != want || next != len(loops) {
						t.Fatalf("%s stagesched=%v validate=%v workers=%d: %d emitted of %d; %s",
							m.Name, stages, validate, w, next, len(loops), firstDiff(g, want))
					}
				}
			}
		}
	}
}
