// Package compile is the whole-translation-unit compile path: it
// takes a multi-loop program through lint → assign/schedule (on
// pooled pipeline.Sessions) → stage scheduling → register allocation
// → emission → optional sim cross-validation as one streaming,
// stage-parallel pipeline.
//
// The stage graph is fixed:
//
//	frontend → lint → schedule → stagesched → regalloc → emit → validate
//
// (the frontend runs ahead of the graph, behind a barrier — see
// Source — and the stagesched and validate stages no-op unless enabled
// by Options). Loops flow through the stages as independent items over
// pool.RunStages: bounded per-stage worker pools, a bounded queue
// between adjacent stages (backpressure — a slow scheduler stalls
// lint, not memory), and loop 3 can be in regalloc while loop 7 is
// still in assignment.
// The schedule stage carries the worker budget; the light stages run
// narrow. Results are assembled in input order regardless of
// completion order, so Options.Emit observes exactly the sequence a
// sequential compiler would produce and output is byte-identical for
// every worker count.
//
// Cancellation is drain-through: every stage checks the run context
// and the loop's error before doing work, so once the context ends,
// in-flight loops flush through the remaining stages as no-ops and
// Run returns promptly with every loop marked canceled. There are no
// multi-channel selects and no goroutines in this package (they live
// in internal/pool); compile is on schedvet's critical list and holds
// to the same determinism contract as the scheduler itself.
package compile

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"clustersched/internal/ddg"
	"clustersched/internal/diag"
	"clustersched/internal/emit"
	"clustersched/internal/frontend"
	"clustersched/internal/lint"
	"clustersched/internal/machine"
	"clustersched/internal/obs"
	"clustersched/internal/pipeline"
	"clustersched/internal/pool"
	"clustersched/internal/regalloc"
	"clustersched/internal/sched"
	"clustersched/internal/sim"
	"clustersched/internal/stagesched"
	"clustersched/internal/verify"
)

// Stage indices of the fixed stage graph, in flow order.
const (
	stageLint = iota
	stageSchedule
	stageStagesched
	stageRegalloc
	stageEmit
	stageValidate
	numStages
)

var stageNames = [numStages]string{"lint", "schedule", "stagesched", "regalloc", "emit", "validate"}

// Options configures an Executor.
type Options struct {
	// Pipeline are the per-loop scheduling options, passed verbatim to
	// the pooled pipeline.Sessions. Callers own the defaults: the zero
	// value selects the Simple assignment variant, which is almost
	// never what a compiler driver wants (cmd/clusterc and the server
	// pass HeuristicIterative explicitly, like the library facade).
	Pipeline pipeline.Options
	// Workers bounds the schedule stage's worker pool, the wide stage
	// of the pipeline; <= 0 selects GOMAXPROCS. Worker count changes
	// wall-clock time only, never output (deterministic assembly).
	Workers int
	// Buffer is the queue depth between adjacent stages; <= 0 selects
	// twice the worker count. Smaller buffers tighten backpressure,
	// larger ones smooth stage-time variance.
	Buffer int
	// NoLint skips the per-loop graph lint stage (the pipeline still
	// rejects graphs with Error-severity findings).
	NoLint bool
	// StageSched runs stage scheduling (Eichenberger & Davidson) on
	// every kernel before register allocation.
	StageSched bool
	// Pipelined emits prologue, kernel, and epilogue instead of the
	// steady-state kernel only.
	Pipelined bool
	// Validate cross-validates every emitted kernel with
	// internal/sim's functional execution under the MVE allocation.
	Validate bool
	// SimIters is the iteration count for Validate; <= 0 selects sim's
	// default (3*MVE factor + 4).
	SimIters int
	// Emit, when set, is called once per loop in input order as
	// results retire from the pipeline, on the goroutine that called
	// Run. It sees failed loops too (Err non-nil).
	Emit func(*LoopResult)
}

// LoopResult is one loop's journey through the pipeline.
type LoopResult struct {
	// Index is the loop's position in the translation unit.
	Index int
	// Name and Line identify the loop in the source.
	Name string
	Line int
	// Graph is the loop's input dependence graph (the annotated graph
	// with inserted copies is Outcome.Assignment.Graph).
	Graph *ddg.Graph
	// Err is the first stage failure; later stages pass a failed loop
	// through untouched, so at most one stage contributes.
	Err error
	// Outcome is the schedule-stage result (nil when that stage failed
	// or never ran).
	Outcome *pipeline.Outcome
	// Moved is the number of operations stage scheduling relocated
	// (zero unless Options.StageSched).
	Moved int
	// Alloc is the kernel's MVE register allocation.
	Alloc *regalloc.Allocation
	// Text is the emitted kernel (or full pipelined listing).
	Text string
}

// StageStat is one stage's aggregate over a Run.
type StageStat struct {
	Stage string `json:"stage"`
	// Loops counts loops the stage did work for (failed loops drain
	// through without being counted).
	Loops int `json:"loops"`
	// NS is the stage's summed wall-clock time across all loops and
	// workers (it can exceed the run's elapsed time when the stage ran
	// in parallel).
	NS int64 `json:"ns"`
}

// Result is a whole-translation-unit compile.
type Result struct {
	// Loops holds every loop's result, in input order.
	Loops []LoopResult
	// Stages is the per-stage time breakdown, in flow order; stages
	// that did no work are omitted.
	Stages []StageStat
	// FrontendNS is the source-to-graph time (set by Source; zero when
	// the caller compiled the graphs itself).
	FrontendNS int64
	// Scheduled and Failed partition the loops.
	Scheduled int
	Failed    int
	// Stats aggregates the search-effort counters of every scheduled
	// loop (zero unless Pipeline.CollectStats or an Observer is set).
	Stats obs.Stats
}

// Executor is a reusable whole-TU compiler for one machine: it owns a
// free list of pipeline.Sessions (machine lint verdict, ResMII
// tables, scheduler slabs) that survives across Run calls, so
// compiling a stream of translation units pays the per-machine setup
// once. An Executor is safe for concurrent Run calls; the session
// pool is shared.
type Executor struct {
	m       *machine.Config
	opts    Options
	workers int
	buffer  int

	// sessions is the free list of per-worker scheduling sessions,
	// the same single-communication idiom as pipeline.Session's
	// scratch pools.
	sessions chan *pipeline.Session
}

// NewExecutor builds an executor for machine m.
func NewExecutor(m *machine.Config, opts Options) *Executor {
	e := &Executor{m: m, opts: opts, workers: opts.Workers, buffer: opts.Buffer}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.buffer <= 0 {
		e.buffer = 2 * e.workers
	}
	e.sessions = make(chan *pipeline.Session, e.workers)
	return e
}

// Machine returns the executor's target machine.
func (e *Executor) Machine() *machine.Config { return e.m }

func (e *Executor) takeSession() *pipeline.Session {
	select {
	case s := <-e.sessions:
		return s
	default:
		return pipeline.NewSession(e.m, e.opts.Pipeline)
	}
}

func (e *Executor) putSession(s *pipeline.Session) {
	select {
	case e.sessions <- s:
	default:
	}
}

// Source compiles a whole translation unit from loop-language source:
// frontend, then Run over the compiled loops. The source is parsed on
// the calling goroutine; the per-loop graph builds then run on up to
// Options.Workers workers, and all of them finish before Run starts.
// Frontend errors (parse and graph construction) fail the whole unit
// with the first error in source order, like any compiler, and no
// Emit callback fires.
func Source(ctx context.Context, src string, m *machine.Config, opts Options) (*Result, error) {
	t := obs.Now()
	prog, err := frontend.Parse(src)
	if err != nil {
		return nil, err
	}
	loops := make([]frontend.Loop, prog.Len())
	errs := make([]error, prog.Len())
	// The build is uncancelable: ctx governs Run, not the frontend.
	pool.ForEach(context.Background(), prog.Len(), opts.Workers, func(i int) {
		loops[i], errs[i] = buildLoop(prog, i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	frontendNS := obs.Now().Sub(t).Nanoseconds()
	res, err := NewExecutor(m, opts).Run(ctx, loops)
	if res != nil {
		res.FrontendNS = frontendNS
	}
	return res, err
}

// buildLoop is Source's per-loop graph build. No known source parses
// and then fails to build, so tests replace it to fail a chosen loop.
var buildLoop = (*frontend.Program).Build

// Run compiles every loop of the translation unit. Per-loop failures
// land in LoopResult.Err and never abort the unit; the returned error
// is non-nil only when ctx ended the run early (every unfinished loop
// is then marked canceled). Results, stage stats, and Emit callbacks
// are identical for every worker count.
func (e *Executor) Run(ctx context.Context, loops []frontend.Loop) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &run{e: e, ctx: ctx, jobs: make([]job, len(loops))}
	for i := range loops {
		r.jobs[i].res = LoopResult{Index: i, Name: loops[i].Name, Line: loops[i].Line, Graph: loops[i].Graph}
	}

	stages := []pool.Stage{
		{Name: stageNames[stageLint], Workers: 1, Fn: r.stageFn(stageLint, r.lint)},
		{Name: stageNames[stageSchedule], Workers: e.workers, Fn: r.stageFn(stageSchedule, r.schedule)},
		{Name: stageNames[stageStagesched], Workers: 1, Fn: r.stageFn(stageStagesched, r.stagesched)},
		{Name: stageNames[stageRegalloc], Workers: 1, Fn: r.stageFn(stageRegalloc, r.regalloc)},
		{Name: stageNames[stageEmit], Workers: 1, Fn: r.stageFn(stageEmit, r.emit)},
		{Name: stageNames[stageValidate], Workers: 1, Fn: r.stageFn(stageValidate, r.validate)},
	}

	// The sink reorders completion order back to input order: emit
	// callbacks fire for loop i only once loops 0..i-1 have retired.
	// It runs on this goroutine only (pool.RunStages's contract), so
	// the cursor needs no synchronization.
	retired := make([]bool, len(r.jobs))
	next := 0
	pool.RunStages(len(r.jobs), e.buffer, stages, func(i int) {
		retired[i] = true
		for next < len(retired) && retired[next] {
			if e.opts.Emit != nil {
				e.opts.Emit(&r.jobs[next].res)
			}
			next++
		}
	})

	res := r.assemble()
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("compile: translation unit canceled: %w", err)
	}
	return res, nil
}

// One compiles a single loop through the same stage functions,
// sequentially on the calling goroutine — the form the clusterd
// compile endpoint uses under its per-loop result cache. Its result
// is identical to the loop's LoopResult from a Run over any unit
// containing it.
func (e *Executor) One(ctx context.Context, loop frontend.Loop) *LoopResult {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &run{e: e, ctx: ctx, jobs: make([]job, 1)}
	r.jobs[0].res = LoopResult{Name: loop.Name, Line: loop.Line, Graph: loop.Graph}
	for idx, fn := range [numStages]func(*job) bool{
		stageLint:       r.lint,
		stageSchedule:   r.schedule,
		stageStagesched: r.stagesched,
		stageRegalloc:   r.regalloc,
		stageEmit:       r.emit,
		stageValidate:   r.validate,
	} {
		r.stageFn(idx, fn)(0)
	}
	return &r.jobs[0].res
}

// run is the per-Run state: the job slab plus per-stage counters
// (atomics — stages of one loop run on different goroutines).
type run struct {
	e    *Executor
	ctx  context.Context
	jobs []job
	ns   [numStages]atomic.Int64
	cnt  [numStages]atomic.Int64
}

// job carries one loop's intermediate state between stages. Exactly
// one stage touches a given job at a time (pool.RunStages's ordering
// guarantee), so the fields need no locks.
type job struct {
	res LoopResult
	in  sched.Input
	sch *sched.Schedule
}

// stageFn wraps a stage body with the drain-through checks and the
// per-stage accounting. A loop that already failed — or a run whose
// context ended — passes through without work, which is what lets
// cancellation flush the pipeline without a single select. A body
// returns false when its stage is disabled, keeping disabled stages
// out of the per-stage breakdown.
func (r *run) stageFn(idx int, fn func(*job) bool) func(int) {
	return func(i int) {
		j := &r.jobs[i]
		if j.res.Err != nil {
			return
		}
		if err := r.ctx.Err(); err != nil {
			j.res.Err = fmt.Errorf("compile: loop %q canceled in %s stage: %w", j.res.Name, stageNames[idx], err)
			return
		}
		t := obs.Now()
		if fn(j) {
			r.ns[idx].Add(obs.Now().Sub(t).Nanoseconds())
			r.cnt[idx].Add(1)
		}
	}
}

func (r *run) lint(j *job) bool {
	if r.e.opts.NoLint {
		return false
	}
	if err := diag.AsError(lint.Graph(j.res.Graph)); err != nil {
		j.res.Err = fmt.Errorf("compile: loop %q rejected by lint: %w", j.res.Name, err)
	}
	return true
}

func (r *run) schedule(j *job) bool {
	s := r.e.takeSession()
	out, err := s.Schedule(r.ctx, j.res.Graph)
	r.e.putSession(s)
	if err != nil {
		j.res.Err = err
		return true
	}
	j.res.Outcome = out
	j.in = sched.Input{
		Graph:       out.Assignment.Graph,
		Machine:     r.e.m,
		ClusterOf:   out.Assignment.ClusterOf,
		CopyTargets: out.Assignment.CopyTargets,
		II:          out.II,
	}
	j.sch = out.Schedule
	return true
}

func (r *run) stagesched(j *job) bool {
	if !r.e.opts.StageSched {
		return false
	}
	j.res.Moved = stagesched.Optimize(j.in, j.sch)
	return true
}

func (r *run) regalloc(j *job) bool {
	// The independent schedule check runs here, after any stage moves,
	// so an invalid schedule can never reach emission.
	if err := verify.Schedule(j.in, j.sch); err != nil {
		j.res.Err = fmt.Errorf("compile: loop %q produced an invalid schedule: %w", j.res.Name, err)
		return true
	}
	j.res.Alloc = regalloc.AllocateMVE(j.in, j.sch)
	if err := j.res.Alloc.Validate(j.in, j.sch); err != nil {
		j.res.Err = fmt.Errorf("compile: loop %q register allocation invalid: %w", j.res.Name, err)
	}
	return true
}

func (r *run) emit(j *job) bool {
	if r.e.opts.Pipelined {
		j.res.Text = emit.Pipelined(j.in, j.sch)
	} else {
		j.res.Text = emit.Kernel(j.in, j.sch)
	}
	return true
}

func (r *run) validate(j *job) bool {
	if !r.e.opts.Validate {
		return false
	}
	if err := sim.Run(j.in, j.sch, j.res.Alloc, r.e.opts.SimIters); err != nil {
		j.res.Err = fmt.Errorf("compile: loop %q failed sim cross-validation: %w", j.res.Name, err)
	}
	return true
}

func (r *run) assemble() *Result {
	res := &Result{Loops: make([]LoopResult, len(r.jobs))}
	for i := range r.jobs {
		res.Loops[i] = r.jobs[i].res
		if r.jobs[i].res.Err != nil {
			res.Failed++
			continue
		}
		res.Scheduled++
		if r.jobs[i].res.Outcome != nil {
			res.Stats.Add(r.jobs[i].res.Outcome.Stats)
		}
	}
	for idx := 0; idx < numStages; idx++ {
		if n := r.cnt[idx].Load(); n > 0 {
			res.Stages = append(res.Stages, StageStat{Stage: stageNames[idx], Loops: int(n), NS: r.ns[idx].Load()})
		}
	}
	return res
}
