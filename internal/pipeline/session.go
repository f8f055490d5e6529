package pipeline

import (
	"context"
	"fmt"
	"runtime"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/diag"
	"clustersched/internal/lint"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
	"clustersched/internal/obs"
	"clustersched/internal/pool"
	"clustersched/internal/sched"
)

// warmSeedPeriod is the number of consecutive escalated candidates
// warm-started from one seed: the failed candidates at MII,
// MII+warmSeedPeriod, MII+2*warmSeedPeriod, ... each leave the seed
// the next warmSeedPeriod candidates start from. Measured over the
// full paper reproduction (clusterbench -markdown), refreshing the seed
// on every candidate instead moves five avg-copies cells by 0.01 (four
// down, fig16 "2 buses" up from 1.18 to 1.19) and no II or match%
// cell; 4 keeps the reproduction pinned in
// internal/report/testdata/paper.golden.md.
const warmSeedPeriod = 4

// noLoop is the empty graph a session's assignment problem is built
// on before its first Bind, which hands the problem the loop together
// with the bound vector the session already computed. Binding only
// reads it, so every session shares it.
var noLoop = new(ddg.Graph)

// Session is a reusable scheduling context for one machine
// configuration: it hoists everything the II search would otherwise
// recompute per call — the machine lint verdict, the per-machine
// ResMII resource totals, the assignment problem and the scheduler's
// working buffers — and runs the warm-started II search described in
// the package comment. Scheduling many loops on one Session is
// equivalent to (and byte-identical with) calling RunContext per loop;
// it is just faster.
//
// A Session may be used from one goroutine at a time.
type Session struct {
	m     *machine.Config
	opts  Options
	mc    *mii.Machine
	mErr  error
	slack int

	// prob is the assignment problem, built for the session's first
	// loop and re-targeted with Bind for every later one, reusing its
	// slabs, capacity tables, and ordering scratch. A rebound problem
	// is behaviorally identical to a fresh one (assign.Problem.Bind's
	// contract), so reuse changes only allocation counts.
	prob *assign.Problem

	// sc holds the scheduler's working buffers for every probe.
	sc sched.Scratch

	// seed backs the warm seed: the copied partial assignment of the
	// last failed candidate at a refresh point.
	seed []int

	// recSc backs the session's bound computations, including the
	// per-SCC RecMII vector handed to prob (mii.Machine itself stays
	// immutable and shareable).
	recSc mii.RecScratch

	// trace is renewed by every Schedule call that observes, counts or
	// can be canceled; calls that do none of these run on a nil trace.
	trace obs.Trace
}

// NewSession builds a session for machine m. The machine is linted
// once, here; a machine with Error-severity diagnostics makes every
// Schedule call fail with the same wrapped *diag.List error RunContext
// reports.
func NewSession(m *machine.Config, opts Options) *Session {
	s := &Session{
		m:     m,
		opts:  opts,
		mc:    mii.NewMachine(m),
		slack: opts.MaxIISlack,
	}
	if err := diag.AsError(lint.Machine(m)); err != nil {
		s.mErr = fmt.Errorf("pipeline: invalid machine: %w", err)
	}
	if s.slack <= 0 {
		s.slack = DefaultMaxIISlack
	}
	return s
}

// Schedule runs the II search for loop g. It is the session form of
// RunContext: same contract, same errors, same Outcome.
func (s *Session) Schedule(ctx context.Context, g *ddg.Graph) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.Timeout)
		defer cancel()
	}
	// The structural checks decide validity; lint.Graph only adds
	// warnings, so it runs just to report an invalid graph.
	if diag.CountErrors(g.Lint()) > 0 {
		return nil, fmt.Errorf("pipeline: invalid graph: %w", diag.AsError(lint.Graph(g)))
	}
	if s.mErr != nil {
		return nil, s.mErr
	}

	tr := s.trace.Renew(ctx, s.opts.Observer, s.opts.CollectStats)
	if err := tr.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: search canceled before MII: %w", err)
	}
	// One bound pass per loop: the per-SCC RecMII vector behind the MII
	// also ranks the recurrences of the assignment order.
	tm := tr.BeginPhase(obs.PhaseMII, 0)
	bound, recs, ok := s.mc.MIIWith(g, &s.recSc, tr)
	tr.EndPhase(obs.PhaseMII, bound, tm, ok)
	if !ok {
		return nil, fmt.Errorf("pipeline: search canceled computing MII: %w", tr.Err())
	}
	out := &Outcome{MII: bound}

	if s.prob == nil {
		s.prob = assign.NewProblem(noLoop, s.m, s.opts.Assign)
	}
	s.prob.Bind(g, recs, tr)

	// Figure 5's escalation: MII, MII+1, ... until a candidate
	// schedules. The MII candidate is never warm (there is no earlier
	// failure to seed from); later ones are seeded per warmSeedPeriod.
	var seed []int
	maxII := out.MII + s.slack
	for ii := out.MII; ii <= maxII; ii++ {
		if err := tr.Err(); err != nil {
			return nil, fmt.Errorf("pipeline: search canceled at II %d (MII %d): %w", ii, out.MII, err)
		}
		res, sch, partial := s.probe(ii, seed, tr)
		if sch != nil {
			out.II, out.Assignment, out.Schedule = ii, res, sch
			if tr != nil {
				out.Stats = tr.Stats
			}
			return out, nil
		}
		if res == nil {
			out.AssignFailures++
		} else {
			out.SchedFailures++
		}
		if (ii-out.MII)%warmSeedPeriod == 0 {
			seed = nil
			if partial != nil {
				s.seed = append(s.seed[:0], partial...)
				seed = s.seed
			}
		}
	}
	if err := tr.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: search canceled (MII %d): %w", out.MII, err)
	}
	return nil, fmt.Errorf("pipeline: no schedule for %q within II <= %d (MII %d)",
		s.m.Name, maxII, out.MII)
}

// probe evaluates one candidate II: a warm-started attempt when a seed
// is available (and warm starts are enabled), falling back to a
// scratch attempt at the same II when the warm attempt fails, so a
// warm probe succeeds whenever a scratch probe would. It returns what
// attempt returns; a failed probe's result and partial come from the
// scratch attempt.
func (s *Session) probe(ii int, seed []int, tr *obs.Trace) (*assign.Result, *sched.Schedule, []int) {
	tr.IICandidate(ii)
	if len(seed) > 0 && !s.opts.DisableWarmStart {
		tr.WarmStart()
		if res, sch, _ := s.attempt(ii, seed, tr); sch != nil || tr.Canceled() {
			return res, sch, nil
		}
		tr.WarmFallback()
	}
	return s.attempt(ii, nil, tr)
}

// attempt is one assignment+scheduling pass at ii. It returns the
// assignment (nil when assignment failed) and the schedule (nil when
// either phase failed). On failure it also returns the warm seed the
// pass leaves behind: the assignment's consistent partial on an
// assignment failure, or the full committed assignment when the
// scheduler was the phase that rejected the II. The partial aliases
// the session's problem or the result and must be copied before the
// next attempt.
//
//schedvet:alloc-free
func (s *Session) attempt(ii int, seed []int, tr *obs.Trace) (*assign.Result, *sched.Schedule, []int) {
	ta := tr.BeginPhase(obs.PhaseAssign, ii)
	res, aok := s.prob.RunAt(ii, seed, tr)
	tr.EndPhase(obs.PhaseAssign, ii, ta, aok)
	if !aok {
		return nil, nil, s.prob.Partial()
	}
	in := sched.Input{
		Graph:       res.Graph,
		Machine:     s.m,
		ClusterOf:   res.ClusterOf,
		CopyTargets: res.CopyTargets,
		II:          ii,
		Trace:       tr,
		Scratch:     &s.sc,
	}
	var (
		sch *sched.Schedule
		sok bool
	)
	ts := tr.BeginPhase(obs.PhaseSched, ii)
	switch s.opts.Scheduler {
	case SMS:
		sch, sok = sched.SMS(in)
	default:
		sch, sok = sched.IMS(in)
	}
	tr.EndPhase(obs.PhaseSched, ii, ts, sok)
	if !sok {
		return res, nil, res.ClusterOf[:res.NumOriginal]
	}
	return res, sch, nil
}

// BatchResult is one loop's result within RunBatch, in input order.
type BatchResult struct {
	Outcome *Outcome
	Err     error
}

// RunBatch schedules every loop of loops on machine m, sharding the
// batch over a bounded worker pool with one reusable Session per
// worker. Results come back in input order and are byte-identical to
// calling RunContext(ctx, loop, m, opts) per loop — worker count
// changes only wall-clock time. workers <= 0 selects GOMAXPROCS.
func RunBatch(ctx context.Context, loops []*ddg.Graph, m *machine.Config, opts Options, workers int) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]BatchResult, len(loops))
	sessions := make(chan *Session, workers)
	err := pool.ForEach(ctx, len(loops), workers, func(i int) {
		var s *Session
		select {
		case s = <-sessions:
		default:
			s = NewSession(m, opts)
		}
		o, e := s.Schedule(ctx, loops[i])
		out[i] = BatchResult{Outcome: o, Err: e}
		select {
		case sessions <- s:
		default:
		}
	})
	if err != nil {
		for i := range out {
			if out[i].Outcome == nil && out[i].Err == nil {
				out[i].Err = fmt.Errorf("pipeline: batch canceled: %w", err)
			}
		}
	}
	return out
}
