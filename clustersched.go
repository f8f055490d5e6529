// Package clustersched is a library implementation of "Effective
// Cluster Assignment for Modulo Scheduling" (Nystrom & Eichenberger,
// MICRO 1998): software pipelining of inner loops for clustered VLIW
// machines, where the register file is split across clusters and
// values move between them through explicit copy operations.
//
// The workflow mirrors the paper's two-phase process:
//
//  1. Describe the loop as a data-dependence graph (Graph) and the
//     target as a machine configuration (Machine).
//  2. Call Schedule: the cluster assignment pass maps operations to
//     clusters and inserts copies, then a traditional modulo scheduler
//     (iterative modulo scheduling, or the swing modulo scheduler)
//     produces the kernel. The initiation interval is escalated until
//     both phases succeed.
//
// A minimal dot-product example:
//
//	g := clustersched.NewGraph()
//	a := g.AddNode(clustersched.OpLoad, "a[i]")
//	b := g.AddNode(clustersched.OpLoad, "b[i]")
//	m := g.AddNode(clustersched.OpFMul, "")
//	s := g.AddNode(clustersched.OpFAdd, "s")
//	g.AddEdge(a, m, 0)
//	g.AddEdge(b, m, 0)
//	g.AddEdge(m, s, 0)
//	g.AddEdge(s, s, 1) // accumulator recurrence
//
//	res, err := clustersched.Schedule(g, clustersched.BusedGP(2, 2, 1))
//	if err != nil { ... }
//	fmt.Println(res.II, res.Kernel())
//
// # Cancellation and observability
//
// ScheduleContext is the context-aware entry point: it honours
// cancellation and deadlines mid-search (between II candidates, node
// placements, and scheduler displacements) and returns an error
// wrapping ctx.Err() when the context ends the run. Schedule is a thin
// wrapper over it with context.Background().
//
// Every schedule collects search-effort counters, available as
// Result.Stats(). WithObserver streams structured trace events
// (phase timings, II candidates, evictions, copy-pressure rejections,
// scheduler displacements — see docs/OBSERVABILITY.md) to an Observer
// such as NewJSONObserver.
//
// # Option defaults
//
// All options have working defaults; zero options reproduce the
// paper's full algorithm:
//
//	Option          Default                 Meaning
//	WithVariant     HeuristicIterative      the paper's complete assignment algorithm
//	WithScheduler   IMS                     phase-two engine (SMS reproduces the paper's choice)
//	WithBudget      8 evictions per node    assignment backtracking budget (min 16 total)
//	WithMaxIISlack  96 cycles above MII     II search headroom before giving up
//	WithTimeout     none                    wall-clock bound on the whole search
//	WithObserver    none (counters only)    structured trace event sink
package clustersched

import (
	"context"
	"io"
	"time"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/ddgio"
	"clustersched/internal/diag"
	"clustersched/internal/dot"
	"clustersched/internal/emit"
	"clustersched/internal/frontend"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
	"clustersched/internal/obs"
	"clustersched/internal/pipeline"
	"clustersched/internal/regalloc"
	"clustersched/internal/sched"
	"clustersched/internal/sim"
	"clustersched/internal/stagesched"
	"clustersched/internal/verify"
)

// Graph is a loop body's data-dependence graph. Nodes are operations;
// an edge (from, to, distance) says the value produced by from in
// iteration i is consumed by to in iteration i+distance.
type Graph = ddg.Graph

// OpKind classifies an operation (latencies follow the paper's
// Table 2).
type OpKind = ddg.OpKind

// Operation kinds.
const (
	OpALU    = ddg.OpALU
	OpShift  = ddg.OpShift
	OpBranch = ddg.OpBranch
	OpLoad   = ddg.OpLoad
	OpStore  = ddg.OpStore
	OpFAdd   = ddg.OpFAdd
	OpFMul   = ddg.OpFMul
	OpFDiv   = ddg.OpFDiv
	OpFSqrt  = ddg.OpFSqrt
	OpCopy   = ddg.OpCopy
)

// NewGraph returns an empty dependence graph.
func NewGraph() *Graph { return ddg.NewGraph(8, 16) }

// Machine describes a clustered (or unified) VLIW target.
type Machine = machine.Config

// FUClass is a function-unit class (general purpose, memory, integer,
// floating point).
type FUClass = machine.FUClass

// Function-unit classes for hand-built machine configurations.
const (
	FUGeneral = machine.FUGeneral
	FUMemory  = machine.FUMemory
	FUInteger = machine.FUInteger
	FUFloat   = machine.FUFloat
)

// BusedGP returns a broadcast-bus machine of `clusters` clusters, each
// with four general-purpose units and `ports` read and write ports,
// sharing `buses` buses — the machine of the paper's Figures 12-17.
func BusedGP(clusters, buses, ports int) *Machine {
	return machine.NewBusedGP(clusters, buses, ports)
}

// BusedFS returns the fully specialized variant (one memory, two
// integer, one floating-point unit per cluster) of Figures 18-19.
func BusedFS(clusters, buses, ports int) *Machine {
	return machine.NewBusedFS(clusters, buses, ports)
}

// Grid4 returns the four-cluster point-to-point grid machine of
// Section 2.1: three specialized units per cluster, dedicated links to
// the two adjacent clusters only.
func Grid4(ports int) *Machine { return machine.NewGrid4(ports) }

// Cluster is one cluster of a custom machine: its function units plus
// the read/write ports connecting it to the communication fabric.
type Cluster = machine.Cluster

// Link is a dedicated point-to-point connection between two clusters
// of a custom machine.
type Link = machine.Link

// Network selects a custom machine's communication fabric.
type Network = machine.Network

// Communication fabrics for custom machines.
const (
	Broadcast    = machine.Broadcast
	PointToPoint = machine.PointToPoint
)

// NewCluster builds a cluster for a custom machine configuration.
func NewCluster(fus []FUClass, readPorts, writePorts int) Cluster {
	return Cluster{FUs: fus, ReadPorts: readPorts, WritePorts: writePorts}
}

// DefaultLatencies returns the paper's Table 2 operation latencies,
// the starting point for custom machine configurations.
func DefaultLatencies() [ddg.NumOpKinds]int { return machine.DefaultLatencies() }

// Variant selects the cluster-assignment algorithm; the paper's full
// algorithm is HeuristicIterative.
type Variant = assign.Variant

// Assignment variants compared in the paper's Figures 12 and 13.
const (
	Simple             = assign.Simple
	SimpleIterative    = assign.SimpleIterative
	Heuristic          = assign.Heuristic
	HeuristicIterative = assign.HeuristicIterative
)

// Scheduler selects the phase-two modulo scheduler.
type Scheduler = pipeline.Scheduler

// Phase-two schedulers.
const (
	IMS = pipeline.IMS // Rau's iterative modulo scheduler (default)
	SMS = pipeline.SMS // iterative swing modulo scheduler
)

// Option customizes Schedule.
type Option func(*pipeline.Options)

// WithVariant selects the assignment algorithm (default
// HeuristicIterative).
func WithVariant(v Variant) Option {
	return func(o *pipeline.Options) { o.Assign.Variant = v }
}

// WithScheduler selects the phase-two scheduler (default IMS).
func WithScheduler(s Scheduler) Option {
	return func(o *pipeline.Options) { o.Scheduler = s }
}

// WithBudget sets the assignment backtracking budget per node.
func WithBudget(perNode int) Option {
	return func(o *pipeline.Options) { o.Assign.BudgetPerNode = perNode }
}

// WithMaxIISlack bounds the II search above MII.
func WithMaxIISlack(slack int) Option {
	return func(o *pipeline.Options) { o.MaxIISlack = slack }
}

// Observer receives structured trace events from inside a schedule
// run: phase begin/end with durations, II candidates, assignment
// commits and force-placements, evictions, PCR/MRC copy-pressure
// rejections, budget exhaustions, and scheduler displacements. Calls
// are synchronous with the search; an Observer shared between
// concurrent schedules must be safe for concurrent use.
type Observer = obs.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = obs.ObserverFunc

// Event is one structured trace record; see docs/OBSERVABILITY.md for
// the catalogue.
type Event = obs.Event

// EventKind identifies a trace event type.
type EventKind = obs.EventKind

// Trace event kinds.
const (
	KindPhaseBegin      = obs.KindPhaseBegin
	KindPhaseEnd        = obs.KindPhaseEnd
	KindIICandidate     = obs.KindIICandidate
	KindAssignCommit    = obs.KindAssignCommit
	KindForcePlace      = obs.KindForcePlace
	KindEviction        = obs.KindEviction
	KindPCRReject       = obs.KindPCRReject
	KindBudgetExhausted = obs.KindBudgetExhausted
	KindSchedDisplace   = obs.KindSchedDisplace
)

// Stats aggregates the search effort of one schedule: II candidates
// tried, assignment commits/force-placements/evictions, copy-pressure
// rejections, scheduler displacements, budget exhaustions, and
// per-phase wall-clock time.
type Stats = obs.Stats

// NewJSONObserver returns an Observer streaming events to w as JSON
// Lines (one object per line). It is safe to share across concurrent
// schedules.
func NewJSONObserver(w io.Writer) Observer { return obs.NewJSON(w) }

// WithObserver installs a trace event sink for the run.
func WithObserver(o Observer) Option {
	return func(po *pipeline.Options) { po.Observer = o }
}

// WithTimeout bounds the whole search's wall-clock time; the run ends
// with an error wrapping context.DeadlineExceeded when it trips. It
// composes with any deadline already on the caller's context (the
// earlier one wins).
func WithTimeout(d time.Duration) Option {
	return func(po *pipeline.Options) { po.Timeout = d }
}

// WithWarmStart turns warm-started II escalation on or off (default
// on): when on, each escalated II candidate is seeded from the failed
// candidate's last consistent partial assignment, falling back to a
// scratch run at the same II when the warm attempt fails. Off exists
// for ablation and A/B measurement.
func WithWarmStart(on bool) Option {
	return func(po *pipeline.Options) { po.DisableWarmStart = !on }
}

// WithSpeculation configures the speculative II search: window is the
// number of candidate IIs grouped into one probe round after the MII
// candidate fails (0 keeps the default), and workers bounds the
// goroutines probing one round concurrently (<= 1, the default, keeps
// the search sequential). Speculation never changes the result — the
// lowest feasible II is committed either way — only the wall-clock
// time to find it; see docs/OBSERVABILITY.md for the determinism
// contract.
func WithSpeculation(window, workers int) Option {
	return func(po *pipeline.Options) {
		po.SpeculativeWindow = window
		po.SpeculativeWorkers = workers
	}
}

// Result is a complete clustered modulo schedule.
type Result struct {
	// II is the achieved initiation interval; MII its lower bound.
	II, MII int
	// Copies is the number of inter-cluster copy operations inserted.
	Copies int
	// ClusterOf maps every node of Annotated to its cluster.
	ClusterOf []int
	// CycleOf maps every node of Annotated to its start cycle.
	CycleOf []int
	// Annotated is the scheduled graph: the input nodes (same IDs)
	// followed by the inserted copy nodes.
	Annotated *Graph

	machine *Machine
	input   sched.Input
	sch     *sched.Schedule
	stats   Stats
}

// Stats returns the search-effort counters of the run that produced
// this schedule: II candidates tried, assignment commits and
// evictions, scheduler displacements, and per-phase durations.
func (r *Result) Stats() Stats { return r.stats }

// Schedule software-pipelines loop g onto machine m using the paper's
// two-phase process, with the full heuristic iterative assignment by
// default. It is ScheduleContext under context.Background().
func Schedule(g *Graph, m *Machine, options ...Option) (*Result, error) {
	return ScheduleContext(context.Background(), g, m, options...)
}

// ScheduleContext is Schedule with cancellation: the search honours
// ctx mid-run — a canceled context or an expired deadline stops it
// between II candidates, node placements, and scheduler displacements,
// and the returned error wraps ctx.Err() (check it with
// errors.Is(err, context.Canceled) or context.DeadlineExceeded).
func ScheduleContext(ctx context.Context, g *Graph, m *Machine, options ...Option) (*Result, error) {
	out, err := pipeline.RunContext(ctx, g, m, buildOptions(options))
	if err != nil {
		return nil, err
	}
	return resultFromOutcome(m, out), nil
}

func buildOptions(options []Option) pipeline.Options {
	opts := pipeline.Options{
		Assign:       assign.Options{Variant: assign.HeuristicIterative},
		CollectStats: true,
	}
	for _, o := range options {
		o(&opts)
	}
	return opts
}

func resultFromOutcome(m *Machine, out *pipeline.Outcome) *Result {
	in := sched.Input{
		Graph:       out.Assignment.Graph,
		Machine:     m,
		ClusterOf:   out.Assignment.ClusterOf,
		CopyTargets: out.Assignment.CopyTargets,
		II:          out.II,
	}
	return &Result{
		II:        out.II,
		MII:       out.MII,
		Copies:    out.Assignment.Copies,
		ClusterOf: out.Assignment.ClusterOf,
		CycleOf:   out.Schedule.CycleOf,
		Annotated: out.Assignment.Graph,
		machine:   m,
		input:     in,
		sch:       out.Schedule,
		stats:     out.Stats,
	}
}

// Session is a reusable scheduling context for one machine: the
// machine lint verdict, the resource lower-bound tables, and the
// schedulers' working buffers are computed once and reused across
// loops, so scheduling a stream of loops on one machine skips the
// per-call setup ScheduleContext pays. Results are byte-identical to
// per-call ScheduleContext with the same options.
//
// A Session may be used by one goroutine at a time; for loop-level
// parallelism give each worker its own (see pipeline.RunBatch for the
// internal sharded form). A long-running caller such as a daemon
// should not build one per call: keep a free list of Sessions per
// (machine, options) and return each after use, also after a Schedule
// that was canceled or timed out, which leaves the Session as good as
// new.
type Session struct {
	m *Machine
	s *pipeline.Session
}

// NewSession builds a reusable scheduling session for machine m with
// the same options ScheduleContext accepts.
func NewSession(m *Machine, options ...Option) *Session {
	return &Session{m: m, s: pipeline.NewSession(m, buildOptions(options))}
}

// Schedule software-pipelines loop g, like ScheduleContext but reusing
// the session's precomputed state.
func (s *Session) Schedule(ctx context.Context, g *Graph) (*Result, error) {
	out, err := s.s.Schedule(ctx, g)
	if err != nil {
		return nil, err
	}
	return resultFromOutcome(s.m, out), nil
}

// Kernel renders the steady-state kernel as text.
func (r *Result) Kernel() string { return emit.Kernel(r.input, r.sch) }

// Pipelined renders prologue, kernel, and epilogue.
func (r *Result) Pipelined() string { return emit.Pipelined(r.input, r.sch) }

// Gantt renders a per-cluster occupancy timeline of the kernel with
// utilization percentages.
func (r *Result) Gantt() string { return emit.Gantt(r.input, r.sch) }

// Stages returns the software-pipeline depth (kernel stages).
func (r *Result) Stages() int { return r.sch.StageCount() }

// Validate independently re-checks every dependence and resource of
// the schedule; a nil result is a correctness guarantee. It stops at
// the first violation; Audit enumerates all of them.
func (r *Result) Validate() error { return verify.Schedule(r.input, r.sch) }

// Diagnostic is one coded finding of an analysis or audit pass (see
// docs/DIAGNOSTICS.md for the code catalogue).
type Diagnostic = diag.Diagnostic

// Audit independently re-validates the schedule and returns every
// violation — broken dependences, bad cluster annotations, locality
// breaks, oversubscribed resources — as coded diagnostics, in
// deterministic order. An empty list is the same correctness
// guarantee as a nil Validate; unlike Validate, a broken schedule
// yields the complete finding list, not just the first.
func (r *Result) Audit() []Diagnostic { return verify.Audit(r.input, r.sch) }

// MaxLive estimates steady-state register pressure: machine-wide and
// per cluster.
func (r *Result) MaxLive() (total int, perCluster []int) {
	return verify.MaxLive(r.input, r.sch)
}

// OptimizeStages runs stage scheduling (Eichenberger & Davidson): it
// moves operations by whole multiples of II within their dependence
// slack to shorten register lifetimes. The schedule (CycleOf) is
// updated in place — II, resource use, and validity are preserved —
// and the number of moved operations returned.
func (r *Result) OptimizeStages() int { return stagesched.Optimize(r.input, r.sch) }

// RegisterAllocation is a modulo-variable-expansion register binding
// for the kernel (see internal/regalloc).
type RegisterAllocation = regalloc.Allocation

// Registers allocates kernel registers by modulo variable expansion:
// the kernel is unrolled by the MVE factor and each value instance is
// bound to a register of its cluster's file.
func (r *Result) Registers() *RegisterAllocation {
	return regalloc.AllocateMVE(r.input, r.sch)
}

// MVEFactor returns the kernel unroll factor required on machines
// without rotating register files: max over values of
// ceil(lifetime / II).
func (r *Result) MVEFactor() int { return regalloc.MVEFactor(r.input, r.sch) }

// RotatingAllocation is a rotating-register-file binding (Cydra 5 /
// IA-64 semantics): one logical register per value, physical location
// rotating each iteration, no kernel unrolling needed.
type RotatingAllocation = regalloc.Rotating

// RegistersRotating allocates kernel registers for rotating register
// files; compare its file sizes against Registers() to weigh rotation
// hardware against modulo-variable-expansion code growth.
func (r *Result) RegistersRotating() *RotatingAllocation {
	return regalloc.AllocateRotating(r.input, r.sch)
}

// SimulateRotating is Simulate under the rotating register binding.
func (r *Result) SimulateRotating(iters int) error {
	return sim.RunRotating(r.input, r.sch, regalloc.AllocateRotating(r.input, r.sch), iters)
}

// DOT renders the annotated, scheduled loop as a Graphviz graph,
// clustered by register file, for inspection and documentation.
func (r *Result) DOT() string { return dot.Render(r.input, r.sch) }

// Simulate functionally executes iters overlapped iterations of the
// schedule (0 selects a default long enough to wrap every rotation),
// modeling each cluster's register file under the MVE allocation and
// checking that every operand read observes exactly the value
// sequential execution would produce. A nil result is an end-to-end
// functional-correctness guarantee for the kernel.
func (r *Result) Simulate(iters int) error {
	return sim.Run(r.input, r.sch, regalloc.AllocateMVE(r.input, r.sch), iters)
}

// MII returns the lower initiation-interval bound of g on m —
// max(ResMII, RecMII) — without scheduling.
func MII(g *Graph, m *Machine) int { return mii.MII(g, m) }

// GenerateSuite returns the deterministic synthetic loop suite used by
// the benchmark harness (1327 loops matching the statistics of the
// paper's Table 1 when called with count 0 and seed 0 defaults).
func GenerateSuite(seed int64, count int) []*Graph {
	return loopgen.Suite(loopgen.Options{Seed: seed, Count: count})
}

// ReadLoops parses loops in the ddg text format (see cmd/schedview for
// the syntax).
func ReadLoops(r io.Reader) ([]ddgio.NamedGraph, error) { return ddgio.Read(r) }

// WriteLoop renders a loop in the ddg text format.
func WriteLoop(w io.Writer, name string, g *Graph) error { return ddgio.Write(w, name, g) }

// NamedGraph pairs a parsed loop with its name.
type NamedGraph = ddgio.NamedGraph

// CompiledLoop pairs a loop compiled from source with its name.
type CompiledLoop = frontend.Loop

// CompileSource compiles loops written in the small loop language into
// dependence graphs (see cmd/clusterc for the syntax):
//
//	loop dotprod {
//	    s = s + a[i] * b[i]
//	}
//
// Array accesses become loads and stores with memory dependences
// derived from the subscripts; scalars read before their definition
// carry the previous iteration's value (recurrences); loop-invariant
// scalars and constants fold away.
func CompileSource(src string) ([]CompiledLoop, error) { return frontend.Compile(src) }
