// Package pipeline drives the paper's two-phase process (Figure 5):
// compute the unified-machine MII, run cluster assignment at a
// candidate II, hand the annotated graph to a traditional modulo
// scheduler, and escalate II until a valid schedule emerges.
//
// Unlike the paper's formulation — which restarts assignment from
// scratch on every failure — the search here runs on a reusable
// Session: all II-invariant precomputation (SCC decomposition,
// adjacency and machine path tables, engine arenas, scheduler
// buffers, per-machine ResMII totals) is hoisted out of the per-II
// loop. The candidates are still walked one at a time, MII, MII+1,
// ..., but each escalated candidate is warm-started from the partial
// assignment of an earlier failed one (one seed serves a run of
// warmSeedPeriod candidates), falling back to a scratch run at the
// same II when the warm attempt fails, so warm starts never raise the
// achieved II. RunBatch shards whole loop sets over a worker pool with
// one Session per worker.
//
// The search is observable and cancelable: RunContext threads a
// context.Context and an optional obs.Observer through the
// II-escalation loop, the assignment backtracking, and the scheduler
// inner loops. With no observer, no stats request, and an
// uncancelable context, the whole layer collapses to a nil *obs.Trace
// and every hook is a single nil check (see BenchmarkRunObservability).
package pipeline

import (
	"context"
	"fmt"
	"time"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/machine"
	"clustersched/internal/obs"
	"clustersched/internal/sched"
)

// Scheduler selects the phase-two algorithm.
type Scheduler int

// Available phase-two schedulers.
const (
	// IMS is Rau's iterative modulo scheduler.
	IMS Scheduler = iota
	// SMS is the iterative swing modulo scheduler the paper uses.
	SMS
)

// String names the scheduler.
func (s Scheduler) String() string {
	switch s {
	case IMS:
		return "IMS"
	case SMS:
		return "SMS"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// Options configures a pipeline run.
type Options struct {
	// Assign configures the cluster assignment phase.
	Assign assign.Options
	// Scheduler picks the phase-two algorithm (default IMS).
	Scheduler Scheduler
	// MaxIISlack bounds the search: the pipeline gives up when
	// II > MII + MaxIISlack. Zero selects DefaultMaxIISlack.
	MaxIISlack int
	// Observer receives structured trace events from every phase of
	// the search; nil disables eventing. A shared Observer must be
	// safe for concurrent use.
	Observer obs.Observer
	// CollectStats turns on the obs.Stats counters even without an
	// Observer; the totals land on Outcome.Stats. Implied by Observer.
	CollectStats bool
	// Timeout bounds the whole run's wall-clock time; zero means no
	// timeout. It composes with whatever deadline the caller's context
	// already carries (the earlier one wins).
	Timeout time.Duration
	// DisableWarmStart makes every II probe run from scratch instead
	// of seeding from an earlier failed candidate's partial
	// assignment. Exists for ablation; warm starts never raise the
	// achieved II (a failed warm attempt falls back to a scratch run
	// at the same II).
	DisableWarmStart bool
}

// DefaultMaxIISlack is the default II search headroom above MII.
const DefaultMaxIISlack = 96

// Outcome reports a finished pipeline run.
type Outcome struct {
	// II is the achieved initiation interval.
	II int
	// MII is max(ResMII, RecMII) of the original graph on the machine.
	MII int
	// Assignment is the cluster assignment used (single trivial cluster
	// for unified machines).
	Assignment *assign.Result
	// Schedule is the final modulo schedule of the annotated graph.
	Schedule *sched.Schedule
	// AssignFailures and SchedFailures count II values rejected by each
	// phase before success.
	AssignFailures int
	SchedFailures  int
	// Stats carries the search-effort counters when observability was
	// active (an Observer installed, CollectStats set, or a cancelable
	// context); zero otherwise.
	Stats obs.Stats
}

// Run schedules loop g on machine m with no cancellation: it is
// RunContext under context.Background().
//
//schedvet:test-api the one-shot reference the session oracle tests compare against
func Run(g *ddg.Graph, m *machine.Config, opts Options) (*Outcome, error) {
	return RunContext(context.Background(), g, m, opts)
}

// RunContext schedules loop g on machine m. Inputs are linted first: a
// graph or machine with Error-severity diagnostics is rejected before
// assignment runs, and the returned error wraps a *diag.List carrying
// every finding (recover it with errors.As). Otherwise RunContext
// errors only when ctx is canceled or its deadline passes — the error
// wraps ctx.Err(), checkable with errors.Is — or when the II search
// space is exhausted, which for well-formed inputs indicates a machine
// too narrow for the loop (or a pathological graph).
//
// Cancellation is honoured before any work and mid-search: inside the
// bound passes (RecMII and the start-time relaxations poll once per
// round), between II candidates, between node placements inside
// assignment backtracking, and between placements inside the modulo
// schedulers.
//
// RunContext is the one-shot form of Session.Schedule: it builds a
// Session, uses it once and drops it. Callers scheduling many loops on
// one machine, in one batch or across the requests of a long-running
// service, should keep Sessions and reuse them (or use RunBatch) so
// the per-machine precomputation is paid once. A Session stays reusable
// after a Schedule that was canceled or timed out.
func RunContext(ctx context.Context, g *ddg.Graph, m *machine.Config, opts Options) (*Outcome, error) {
	return NewSession(m, opts).Schedule(ctx, g)
}
