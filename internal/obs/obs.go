// Package obs is the scheduling pipeline's observability layer:
// structured trace events, aggregate counters, and context-aware
// cancellation, threaded through the II-escalation loop, the cluster
// assignment backtracking of internal/assign, and the modulo
// schedulers of internal/sched.
//
// The central type is Trace. A nil *Trace is the disabled fast path:
// every hook method has a nil receiver check as its first instruction
// and touches nothing else, so code instrumented with obs hooks pays
// one predictable branch per hook when observability is off (see
// BenchmarkTraceOverhead and the package pipeline benchmarks).
//
// A Trace does three independent jobs, any subset of which may be
// active:
//
//   - Counting: every hook increments a field of Trace.Stats. The
//     caller reads the totals after the run (pipeline carries them on
//     its Outcome, clustersched on Result.Stats()).
//   - Eventing: when an Observer is installed, every hook also emits a
//     structured Event. Observers see events synchronously from the
//     scheduling goroutine and must be fast; they must be safe for
//     concurrent use if the same Observer is shared across runs.
//   - Cancellation: the Trace carries the run's context.Context.
//     Search loops poll Canceled(), so deadlines and cancellation take
//     effect mid-search, between node placements and displacements —
//     not just between II candidates.
package obs

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// EventKind identifies a trace event type. The catalogue is documented
// in docs/OBSERVABILITY.md.
type EventKind uint8

// Trace event kinds.
const (
	// KindPhaseBegin and KindPhaseEnd bracket one pipeline phase (see
	// the Phase* constants). KindPhaseEnd carries the duration and
	// whether the phase succeeded.
	KindPhaseBegin EventKind = iota
	KindPhaseEnd
	// KindIICandidate marks the start of one II-escalation step: the
	// pipeline is about to attempt assignment and scheduling at II.
	KindIICandidate
	// KindAssignCommit is one node committed to a cluster through the
	// normal selection chain.
	KindAssignCommit
	// KindForcePlace is a forced placement (paper Figure 11): no
	// cluster was feasible, the node was committed to the least-bad
	// one and conflicting nodes will be evicted.
	KindForcePlace
	// KindEviction is one already-assigned node removed to relieve a
	// resource violation during forced placement.
	KindEviction
	// KindPCRReject is a feasible candidate cluster rejected by the
	// PCR/MRC copy-pressure prediction (paper Figure 10 line 6, plus
	// this implementation's incoming-copy mirror).
	KindPCRReject
	// KindBudgetExhausted is a search giving up: the assignment
	// eviction budget (Phase == PhaseAssign) or the scheduler
	// displacement budget (Phase == PhaseSched) ran out at this II.
	KindBudgetExhausted
	// KindSchedDisplace is a modulo-scheduler displacement: Victim was
	// unscheduled to make room for Node (resource conflict) or because
	// placing Node violated a dependence to Victim.
	KindSchedDisplace

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	KindPhaseBegin:      "phase_begin",
	KindPhaseEnd:        "phase_end",
	KindIICandidate:     "ii_candidate",
	KindAssignCommit:    "assign_commit",
	KindForcePlace:      "force_place",
	KindEviction:        "eviction",
	KindPCRReject:       "pcr_reject",
	KindBudgetExhausted: "budget_exhausted",
	KindSchedDisplace:   "sched_displace",
}

// String returns the stable snake_case name used in the JSON stream.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Pipeline phases named in phase events.
const (
	// PhaseMII is the initiation-interval lower-bound computation.
	PhaseMII = "mii"
	// PhaseAssign is one cluster-assignment attempt at a candidate II.
	PhaseAssign = "assign"
	// PhaseSched is one modulo-scheduling attempt at a candidate II.
	PhaseSched = "sched"
)

// Event is one structured trace record. Fields that do not apply to a
// kind hold -1 (Node, Cluster, Victim) or their zero value.
type Event struct {
	Kind EventKind
	// Phase is the pipeline phase for KindPhaseBegin, KindPhaseEnd,
	// and KindBudgetExhausted; empty otherwise.
	Phase string
	// II is the current initiation-interval candidate (the MII for
	// PhaseMII events).
	II int
	// Node is the subject operation, -1 when not applicable.
	Node int
	// Cluster is the cluster involved, -1 when not applicable.
	Cluster int
	// Victim is the evicted or displaced node, -1 when not applicable.
	Victim int
	// Dur is the phase duration (KindPhaseEnd only).
	Dur time.Duration
	// OK reports phase success (KindPhaseEnd only).
	OK bool
}

// Observer receives trace events. Calls happen synchronously on the
// scheduling goroutine; implementations shared across concurrent runs
// must be safe for concurrent use.
type Observer interface {
	Event(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Event calls f(e).
func (f ObserverFunc) Event(e Event) { f(e) }

// Stats aggregates the search-effort counters of one pipeline run.
// Summed over many runs (Add) it is the effort profile of a whole
// experiment row.
type Stats struct {
	// IICandidates counts II values attempted (≥ 1 on success; the
	// achieved II is MII + IICandidates - 1 minus any skipped values).
	IICandidates int `json:"ii_candidates"`
	// AssignCommits counts node-to-cluster commitments, including
	// re-commitments of evicted nodes and forced placements.
	AssignCommits int `json:"assign_commits"`
	// ForcePlacements counts commitments made with no feasible cluster
	// (paper Figure 11).
	ForcePlacements int `json:"force_placements"`
	// Evictions counts node removals spent relieving resource
	// violations during forced placement.
	Evictions int `json:"evictions"`
	// PCRRejections counts feasible candidate clusters rejected by the
	// PCR/MRC copy-pressure prediction (full-selection variants only).
	PCRRejections int `json:"pcr_rejections"`
	// AssignBudgetExhausted counts assignment runs that gave up after
	// spending their eviction budget.
	AssignBudgetExhausted int `json:"assign_budget_exhausted"`
	// SchedBudgetExhausted counts scheduler runs that gave up after
	// spending their displacement budget.
	SchedBudgetExhausted int `json:"sched_budget_exhausted"`
	// AssignRejects and SchedRejects count II candidates rejected by
	// each phase before the final II was reached.
	AssignRejects int `json:"assign_rejects"`
	SchedRejects  int `json:"sched_rejects"`
	// SchedDisplacements counts modulo-scheduler displacements (nodes
	// unscheduled for resource conflicts or violated dependences).
	SchedDisplacements int `json:"sched_displacements"`
	// AssignDeltas counts degree-proportional incremental updates
	// (tentative placement, revert, commit, removal) applied by the
	// assignment engine. Each one replaces a from-scratch derive the
	// pre-incremental engine would have performed, so the ratio
	// AssignDeltas : AssignFullDerives is the derive work saved.
	AssignDeltas int `json:"assign_deltas"`
	// AssignFullDerives counts the from-scratch resource derives the
	// assignment phase still performs: the engine builds (one per bind
	// and per-II reset), the unified-machine check, and the
	// reference-oracle paths. Forced placement performs none.
	AssignFullDerives int `json:"assign_full_derives"`
	// IIWarmStarts counts II probes seeded from the partial assignment
	// of an earlier failed candidate instead of starting from scratch.
	IIWarmStarts int `json:"ii_warm_starts"`
	// IIWarmFallbacks counts warm-started probes that failed and were
	// re-run from scratch at the same II, so a warm probe succeeds
	// whenever a scratch probe would.
	IIWarmFallbacks int `json:"ii_warm_fallbacks"`
	// MIITime, AssignTime, and SchedTime attribute wall-clock time to
	// the phases; AssignTime and SchedTime sum over all II candidates.
	MIITime    time.Duration `json:"mii_ns"`
	AssignTime time.Duration `json:"assign_ns"`
	SchedTime  time.Duration `json:"sched_ns"`
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.IICandidates += o.IICandidates
	s.AssignCommits += o.AssignCommits
	s.ForcePlacements += o.ForcePlacements
	s.Evictions += o.Evictions
	s.PCRRejections += o.PCRRejections
	s.AssignBudgetExhausted += o.AssignBudgetExhausted
	s.SchedBudgetExhausted += o.SchedBudgetExhausted
	s.AssignRejects += o.AssignRejects
	s.SchedRejects += o.SchedRejects
	s.SchedDisplacements += o.SchedDisplacements
	s.AssignDeltas += o.AssignDeltas
	s.AssignFullDerives += o.AssignFullDerives
	s.IIWarmStarts += o.IIWarmStarts
	s.IIWarmFallbacks += o.IIWarmFallbacks
	s.MIITime += o.MIITime
	s.AssignTime += o.AssignTime
	s.SchedTime += o.SchedTime
}

// String renders a compact one-line effort summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ii_candidates=%d commits=%d forced=%d evictions=%d pcr_rejects=%d",
		s.IICandidates, s.AssignCommits, s.ForcePlacements, s.Evictions, s.PCRRejections)
	fmt.Fprintf(&b, " displacements=%d rejects=%d/%d budget_out=%d/%d",
		s.SchedDisplacements, s.AssignRejects, s.SchedRejects,
		s.AssignBudgetExhausted, s.SchedBudgetExhausted)
	fmt.Fprintf(&b, " deltas=%d full_derives=%d", s.AssignDeltas, s.AssignFullDerives)
	fmt.Fprintf(&b, " warm=%d/%d", s.IIWarmStarts, s.IIWarmFallbacks)
	fmt.Fprintf(&b, " t_mii=%s t_assign=%s t_sched=%s",
		s.MIITime.Round(time.Microsecond), s.AssignTime.Round(time.Microsecond),
		s.SchedTime.Round(time.Microsecond))
	return b.String()
}

// Trace threads observability through one pipeline run. It is owned by
// a single goroutine (the one running the search); only the installed
// Observer may be shared.
//
// A nil *Trace is valid and disables everything: hooks return after
// one nil check, Canceled reports false, Err reports nil.
type Trace struct {
	// Stats accumulates the run's counters; read it after the run.
	Stats Stats

	ctx  context.Context
	done <-chan struct{}
	obs  Observer
}

// Renew re-arms t for a new run and returns it, with zeroed Stats, so
// an owner that runs one search at a time keeps one Trace across runs.
// It returns nil, leaving t alone — the zero-cost disabled path — when
// there is nothing to do: no observer, stats not requested, and a
// context that can never be canceled.
func (t *Trace) Renew(ctx context.Context, o Observer, collectStats bool) *Trace {
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	if o == nil && !collectStats && done == nil {
		return nil
	}
	*t = Trace{ctx: ctx, done: done, obs: o}
	return t
}

// Canceled reports whether the run's context is done. It is the cheap
// poll for inner search loops: a nil receiver or a background context
// costs two branches.
func (t *Trace) Canceled() bool {
	if t == nil || t.done == nil {
		return false
	}
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Err returns the context's error (nil on a nil Trace or an active
// context).
func (t *Trace) Err() error {
	if t == nil || t.ctx == nil {
		return nil
	}
	return t.ctx.Err()
}

// emit forwards e to the observer, if any. Callers have already
// checked t != nil.
func (t *Trace) emit(e Event) {
	if t.obs != nil {
		t.obs.Event(e)
	}
}

// BeginPhase marks the start of a pipeline phase at candidate ii and
// returns the start time for the matching EndPhase (zero on a nil
// Trace).
func (t *Trace) BeginPhase(phase string, ii int) time.Time {
	if t == nil {
		return time.Time{}
	}
	t.emit(Event{Kind: KindPhaseBegin, Phase: phase, II: ii, Node: -1, Cluster: -1, Victim: -1})
	return time.Now()
}

// EndPhase closes a phase opened by BeginPhase, attributing its
// duration and recording rejection when ok is false.
func (t *Trace) EndPhase(phase string, ii int, start time.Time, ok bool) {
	if t == nil {
		return
	}
	d := time.Since(start)
	switch phase {
	case PhaseMII:
		t.Stats.MIITime += d
	case PhaseAssign:
		t.Stats.AssignTime += d
		if !ok {
			t.Stats.AssignRejects++
		}
	case PhaseSched:
		t.Stats.SchedTime += d
		if !ok {
			t.Stats.SchedRejects++
		}
	}
	t.emit(Event{Kind: KindPhaseEnd, Phase: phase, II: ii, Node: -1, Cluster: -1, Victim: -1, Dur: d, OK: ok})
}

// IICandidate records the start of one II-escalation step.
func (t *Trace) IICandidate(ii int) {
	if t == nil {
		return
	}
	t.Stats.IICandidates++
	t.emit(Event{Kind: KindIICandidate, II: ii, Node: -1, Cluster: -1, Victim: -1})
}

// AssignCommit records node committed to cluster; forced marks a
// Figure 11 forced placement.
func (t *Trace) AssignCommit(ii, node, cluster int, forced bool) {
	if t == nil {
		return
	}
	t.Stats.AssignCommits++
	kind := KindAssignCommit
	if forced {
		t.Stats.ForcePlacements++
		kind = KindForcePlace
	}
	t.emit(Event{Kind: kind, II: ii, Node: node, Cluster: cluster, Victim: -1})
}

// Eviction records victim removed to make the forced placement of node
// consistent.
func (t *Trace) Eviction(ii, node, victim int) {
	if t == nil {
		return
	}
	t.Stats.Evictions++
	t.emit(Event{Kind: KindEviction, II: ii, Node: node, Cluster: -1, Victim: victim})
}

// PCRReject records a feasible candidate cluster for node rejected by
// the copy-pressure prediction.
func (t *Trace) PCRReject(ii, node, cluster int) {
	if t == nil {
		return
	}
	t.Stats.PCRRejections++
	t.emit(Event{Kind: KindPCRReject, II: ii, Node: node, Cluster: cluster, Victim: -1})
}

// BudgetExhausted records a phase giving up its search at II after
// spending its backtracking budget.
func (t *Trace) BudgetExhausted(phase string, ii, node int) {
	if t == nil {
		return
	}
	switch phase {
	case PhaseAssign:
		t.Stats.AssignBudgetExhausted++
	case PhaseSched:
		t.Stats.SchedBudgetExhausted++
	}
	t.emit(Event{Kind: KindBudgetExhausted, Phase: phase, II: ii, Node: node, Cluster: -1, Victim: -1})
}

// AssignDeltas records n degree-proportional incremental updates
// applied by the assignment engine. It is a stats-only hook: delta
// applications are far too frequent (several per candidate cluster per
// node) to stream as events, so no Event is emitted and callers batch
// one call per evaluation round.
func (t *Trace) AssignDeltas(n int) {
	if t == nil {
		return
	}
	t.Stats.AssignDeltas += n
}

// AssignFullDerive records one from-scratch resource derive performed
// by the assignment phase. Stats-only, like AssignDeltas.
func (t *Trace) AssignFullDerive() {
	if t == nil {
		return
	}
	t.Stats.AssignFullDerives++
}

// WarmStart records one II probe seeded from an earlier candidate's
// partial assignment. Stats-only, like AssignDeltas.
func (t *Trace) WarmStart() {
	if t == nil {
		return
	}
	t.Stats.IIWarmStarts++
}

// WarmFallback records a warm-started probe whose warm attempt failed
// and was replayed from scratch. Stats-only.
func (t *Trace) WarmFallback() {
	if t == nil {
		return
	}
	t.Stats.IIWarmFallbacks++
}

// SchedDisplace records the modulo scheduler unscheduling victim on
// behalf of node.
func (t *Trace) SchedDisplace(ii, node, victim int) {
	if t == nil {
		return
	}
	t.Stats.SchedDisplacements++
	t.emit(Event{Kind: KindSchedDisplace, II: ii, Node: node, Cluster: -1, Victim: victim})
}
