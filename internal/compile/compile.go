// Package compile is the whole-translation-unit compile path. A
// multi-loop program streams through one fixed stage graph over
// pool.RunStages (docs/COMPILE.md draws it):
//
//	parse → build → schedule → back end → validate
//
// Parse is one worker in input order; build, schedule (on pooled
// pipeline.Sessions) and the back end (stagesched, regalloc and emit,
// timed apart) take the Workers budget; validate is one worker and in
// the graph only under Options.Validate. Run over prebuilt graphs
// starts at schedule. Bounded queues between stages give backpressure,
// loop 3 can be in the back end while loop 7 is being parsed, and
// results are assembled in input order, so Options.Emit sees exactly
// what a sequential compiler would produce and output is
// byte-identical for every worker count.
//
// Cancellation is drain-through: every step checks the loop's error
// and the run context before doing work, so in-flight loops flush
// through the remaining stages as no-ops. There are no multi-channel
// selects and no goroutines in this package (they live in
// internal/pool); compile is on schedvet's critical list and holds to
// the same determinism contract as the scheduler itself.
package compile

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"clustersched/internal/ddg"
	"clustersched/internal/emit"
	"clustersched/internal/frontend"
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

// Steps of one loop's compile, in flow order. Each stage runs a range
// of them.
const (
	stepParse = iota
	stepBuild
	stepSchedule
	stepStagesched
	stepRegalloc
	stepEmit
	stepValidate
	numSteps
)

var (
	stepNames = [numSteps]string{"parse", "build", "schedule", "stagesched", "regalloc", "emit", "validate"}
	stepFns   = [numSteps]func(*run, *job){(*run).parse, (*run).build, (*run).schedule,
		(*run).stagesched, (*run).regalloc, (*run).emit, (*run).validate}
)

// Options configures an Executor.
type Options struct {
	// Pipeline are the per-loop scheduling options, passed verbatim to
	// the pooled pipeline.Sessions. Their zero value selects the Simple
	// variant; cmd/clusterc and the server pass HeuristicIterative,
	// like the library facade.
	Pipeline pipeline.Options
	// Workers bounds the worker pools of the build, schedule and back
	// end stages; <= 0 selects GOMAXPROCS. Worker count changes
	// wall-clock time only, never output (deterministic assembly).
	Workers int
	// Buffer is the queue depth between adjacent stages; <= 0 selects
	// twice the worker count.
	Buffer int
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
	// Err is the first step failure; later steps pass a failed loop
	// through untouched.
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

// StageStat is one step's aggregate over a Run.
type StageStat struct {
	Stage string `json:"stage"`
	// Loops counts loops the step did work for (failed loops drain
	// through without being counted).
	Loops int `json:"loops"`
	// NS is the step's wall-clock time summed across loops and workers,
	// so it can exceed the run's elapsed time.
	NS int64 `json:"ns"`
}

// Result is a whole-translation-unit compile.
type Result struct {
	// Loops holds every loop's result, in input order.
	Loops []LoopResult
	// Stages is the per-step time breakdown from schedule on, in flow
	// order; steps that did no work are omitted.
	Stages []StageStat
	// FrontendNS is Source's parse and build time, summed over loops
	// and workers like a StageStat's NS (zero under Run).
	FrontendNS int64
	// Scheduled and Failed partition the loops.
	Scheduled int
	Failed    int
	// Stats aggregates the search-effort counters of every scheduled
	// loop (zero unless Pipeline.CollectStats or an Observer is set).
	Stats obs.Stats
}

// Executor is a reusable whole-TU compiler for one machine. Its free
// list of pipeline.Sessions (machine lint verdict, ResMII tables,
// scheduler slabs) survives across Run calls, so a stream of
// translation units pays the per-machine setup once. An Executor is
// safe for concurrent Run calls; the session pool is shared.
type Executor struct {
	m        *machine.Config
	opts     Options
	workers  int
	buffer   int
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
// lexed whole, then parsed a loop at a time into the stage graph. A
// frontend error fails the unit with frontend.Compile's error (a
// syntax error anywhere, else the first build error in source order)
// and a nil result, and no Emit fires: retired loops are held back
// until every loop is built. ctx cancels the frontend too.
func Source(ctx context.Context, src string, m *machine.Config, opts Options) (*Result, error) {
	s, err := frontend.NewStream(src)
	if err != nil {
		return nil, err
	}
	return NewExecutor(m, opts).newRun(ctx, s.Len(), s).exec()
}

// buildLoop is the build step. No known source parses and then fails
// to build, so tests replace it to fail a chosen loop.
var buildLoop = (*frontend.Parsed).Build

// Run compiles every loop of the translation unit. Per-loop failures
// land in LoopResult.Err and never abort the unit; the returned error
// is non-nil only when ctx ended the run early (every unfinished loop
// is then marked canceled). Results, stage stats, and Emit callbacks
// are identical for every worker count.
func (e *Executor) Run(ctx context.Context, loops []frontend.Loop) (*Result, error) {
	r := e.newRun(ctx, len(loops), nil)
	for i, l := range loops {
		res := &r.jobs[i].res
		res.Name, res.Line, res.Graph = l.Name, l.Line, l.Graph
	}
	return r.exec()
}

// One compiles a single loop through the steps from schedule on,
// sequentially on the calling goroutine: the clusterd compile
// endpoint's form. Its result equals the loop's LoopResult from a Run
// over any unit containing it.
func (e *Executor) One(ctx context.Context, loop frontend.Loop) *LoopResult {
	r := e.newRun(ctx, 1, nil)
	r.jobs[0].res = LoopResult{Name: loop.Name, Line: loop.Line, Graph: loop.Graph}
	r.steps(stepSchedule, numSteps)(0)
	return &r.jobs[0].res
}

// run is the per-Run state; the counters are atomics.
type run struct {
	e    *Executor
	ctx  context.Context
	jobs []job
	ns   [numSteps]atomic.Int64
	cnt  [numSteps]atomic.Int64
	// src is Source's parser and parseErr its syntax error; built
	// counts the loops with a graph, and bad is the lowest loop whose
	// build failed (-1 after a syntax error, len(jobs) before any).
	src      *frontend.Stream
	parseErr error
	built    atomic.Int64
	bad      atomic.Int64
}

// job is one loop's state; one stage at a time touches it.
type job struct {
	res LoopResult
	syn frontend.Parsed
	in  sched.Input
	sch *sched.Schedule
}

func (e *Executor) newRun(ctx context.Context, n int, src *frontend.Stream) *run {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &run{e: e, ctx: ctx, jobs: make([]job, n), src: src}
	for i := range r.jobs {
		r.jobs[i].res.Index = i
	}
	r.bad.Store(int64(n))
	if src == nil {
		r.built.Store(int64(n))
	}
	return r
}

// exec streams the loops through the stage graph.
func (r *run) exec() (*Result, error) {
	n, w := len(r.jobs), r.e.workers
	stages := []pool.Stage{
		{Name: "parse", Workers: 1, Fn: r.steps(stepParse, stepBuild)},
		{Name: "build", Workers: w, Fn: r.steps(stepBuild, stepSchedule)},
		{Name: "schedule", Workers: w, Fn: r.steps(stepSchedule, stepStagesched)},
		{Name: "back end", Workers: w, Fn: r.steps(stepStagesched, stepValidate)},
		{Name: "validate", Workers: 1, Fn: r.steps(stepValidate, numSteps)},
	}
	if r.src == nil {
		stages = stages[2:]
	}
	if !r.e.opts.Validate {
		stages = stages[:len(stages)-1]
	}
	// The sink runs on this goroutine only (pool.RunStages's contract).
	// Emit fires for loop i once loops 0..i-1 have retired and the
	// frontend has built every loop.
	retired := make([]bool, n)
	next := 0
	pool.RunStages(n, r.e.buffer, stages, func(i int) {
		retired[i] = true
		for r.built.Load() == int64(n) && next < n && retired[next] {
			if r.e.opts.Emit != nil {
				r.e.opts.Emit(&r.jobs[next].res)
			}
			next++
		}
	})
	if r.parseErr != nil {
		return nil, r.parseErr
	}
	if bad := r.bad.Load(); bad < int64(n) {
		return nil, r.jobs[bad].res.Err
	}
	res := r.assemble()
	if err := r.ctx.Err(); err != nil {
		return res, fmt.Errorf("compile: translation unit canceled: %w", err)
	}
	return res, nil
}

// steps is the stage function that runs steps lo..hi-1 of a loop.
func (r *run) steps(lo, hi int) func(int) {
	return func(i int) {
		for idx := lo; idx < hi; idx++ {
			r.step(idx, i)
		}
	}
}

// step runs one step of loop i and times it. A failed loop or a
// disabled step passes through, as does one a frontend failure made
// moot: the parse goes on past build errors, so a later syntax error
// wins as in frontend.Compile, a build error at loop k skips the
// builds after k, and every later stage drains.
func (r *run) step(idx, i int) {
	moot := int64(len(r.jobs))
	if idx == stepParse {
		moot = 0
	} else if idx == stepBuild {
		moot = int64(i)
	}
	j, o := &r.jobs[i], &r.e.opts
	if j.res.Err != nil || r.bad.Load() < moot || idx == stepStagesched && !o.StageSched || idx == stepValidate && !o.Validate {
		return
	}
	if err := r.ctx.Err(); err != nil {
		j.res.Err = fmt.Errorf("compile: loop %q canceled in %s stage: %w", j.res.Name, stepNames[idx], err)
		return
	}
	t := obs.Now()
	stepFns[idx](r, j)
	r.ns[idx].Add(obs.Now().Sub(t).Nanoseconds())
	r.cnt[idx].Add(1)
}

func (r *run) parse(j *job) {
	p, err := r.src.Next()
	if err != nil {
		r.parseErr = err
		r.bad.Store(-1)
		return
	}
	j.syn, j.res.Name, j.res.Line = p, p.Name(), p.Line()
}

func (r *run) build(j *job) {
	l, err := buildLoop(&j.syn)
	if err != nil {
		j.res.Err = err
		k := int64(j.res.Index)
		for b := r.bad.Load(); k < b && !r.bad.CompareAndSwap(b, k); b = r.bad.Load() {
		}
		return
	}
	j.res.Graph = l.Graph
	r.built.Add(1)
}

func (r *run) schedule(j *job) {
	s := r.e.takeSession()
	out, err := s.Schedule(r.ctx, j.res.Graph)
	r.e.putSession(s)
	if err != nil {
		j.res.Err = err
		return
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
}

func (r *run) stagesched(j *job) { j.res.Moved = stagesched.Optimize(j.in, j.sch) }

func (r *run) regalloc(j *job) {
	// The independent schedule check runs here, after any stage moves,
	// so an invalid schedule can never reach emission.
	if err := verify.Schedule(j.in, j.sch); err != nil {
		j.res.Err = fmt.Errorf("compile: loop %q produced an invalid schedule: %w", j.res.Name, err)
		return
	}
	j.res.Alloc = regalloc.AllocateMVE(j.in, j.sch)
	if err := j.res.Alloc.Validate(j.in, j.sch); err != nil {
		j.res.Err = fmt.Errorf("compile: loop %q register allocation invalid: %w", j.res.Name, err)
	}
}

func (r *run) emit(j *job) {
	if r.e.opts.Pipelined {
		j.res.Text = emit.Pipelined(j.in, j.sch)
	} else {
		j.res.Text = emit.Kernel(j.in, j.sch)
	}
}

func (r *run) validate(j *job) {
	if err := sim.Run(j.in, j.sch, j.res.Alloc, r.e.opts.SimIters); err != nil {
		j.res.Err = fmt.Errorf("compile: loop %q failed sim cross-validation: %w", j.res.Name, err)
	}
}

func (r *run) assemble() *Result {
	res := &Result{
		Loops:      make([]LoopResult, len(r.jobs)),
		FrontendNS: r.ns[stepParse].Load() + r.ns[stepBuild].Load(),
	}
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
	for idx := stepSchedule; idx < numSteps; idx++ {
		if n := r.cnt[idx].Load(); n > 0 {
			res.Stages = append(res.Stages, StageStat{Stage: stepNames[idx], Loops: int(n), NS: r.ns[idx].Load()})
		}
	}
	return res
}
