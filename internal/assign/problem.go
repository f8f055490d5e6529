package assign

import (
	"fmt"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
	"clustersched/internal/obs"
)

// Problem is a reusable cluster-assignment instance for one
// (graph, machine, options) triple. Construction performs every
// II-invariant precomputation — SCC decomposition, CSR adjacency,
// machine path/link tables, the Section 4.1 assignment order, the
// incremental engine with its arenas and scratch buffers — so that an
// II-escalation loop (the paper's Figure 5) pays only the II-dependent
// work per candidate instead of rebuilding all of it on every retry.
//
// A Problem is single-threaded: concurrent II probes each need their
// own (construction is cheap relative to a probe, and probes share
// only the immutable graph and machine).
type Problem struct {
	a *assigner
	// ranOnce distinguishes the pristine post-construction state from
	// one left behind by a previous run, so the first RunAt at the
	// construction II skips a redundant reset.
	ranOnce bool
}

// NewProblem builds a reusable assignment problem. The initial II is a
// placeholder; every RunAt re-targets the capacity tables in place.
func NewProblem(g *ddg.Graph, m *machine.Config, opts Options) *Problem {
	return &Problem{a: newAssigner(g, m, 1, opts)}
}

// Bind re-targets the problem at a new graph on the same machine and
// options, reusing every slab, capacity table, and scratch the
// previous graph grew. It is the cross-loop analogue of the per-II
// reset: a session scheduling many loops rebinds one Problem per loop
// instead of constructing one, and construction itself is a Bind from
// the empty state, so a rebound Problem behaves exactly like a fresh
// one. Any Partial slice handed out for the previous graph is
// invalidated.
//
// recs, when non-nil, is g's per-SCC RecMII vector as
// mii.RecScratch.SCCRecMIIs returns it; the assignment order ranks the
// recurrences by it instead of computing it again. The order's bound
// passes poll tr: a Bind under a canceled trace leaves a valid but
// unranked order, for a caller that checks tr before running.
//
// The rebound problem is re-targeted at the same placeholder II a
// NewProblem starts from, so the first RunAt performs (and traces)
// the identical reset a freshly constructed problem would — pooling a
// problem changes allocation counts, never stats or outcomes.
func (p *Problem) Bind(g *ddg.Graph, recs []int, tr *obs.Trace) {
	p.a.bind(g, 1, recs, tr)
	p.ranOnce = false
}

// problemAt builds a problem already targeted at ii, so a single
// one-shot run (Run) performs exactly one engine build.
func problemAt(g *ddg.Graph, m *machine.Config, ii int, opts Options) *Problem {
	return &Problem{a: newAssigner(g, m, ii, opts)}
}

// RunAt assigns every operation of the graph to a cluster at
// initiation interval ii, reporting false when no valid assignment was
// found at this II (the caller then retries with a larger II).
//
// seed, when non-nil, warm-starts the run from a partial assignment
// captured by a previous failed RunAt at a lower II (see Partial);
// nodes whose seeded placement no longer fits are dropped, never
// failing the run. tr carries this run's observability hooks and
// cancellation context, replacing Options.Trace — per-run because a
// Problem outlives the search it serves: a pipeline session rebinds
// one Problem for every loop and passes each call's trace here.
func (p *Problem) RunAt(ii int, seed []int, tr *obs.Trace) (*Result, bool) {
	if ii <= 0 {
		panic(fmt.Sprintf("assign: non-positive II %d", ii))
	}
	a := p.a
	a.opts.Trace = tr
	a.hasPartial = false
	if p.ranOnce || ii != a.ii {
		a.reset(ii)
	}
	p.ranOnce = true

	if !a.m.Clustered() {
		// Unified machine: everything on cluster 0; only FU capacity
		// can fail (ResMII > ii). No partial is kept — there is nothing
		// a warm start could reuse.
		for i := range a.cluster {
			a.cluster[i] = 0
		}
		if d := a.deriveScratch(); !d.ok {
			return nil, false
		}
		return a.buildResult(), true
	}

	if len(seed) > 0 {
		a.seedFrom(seed)
	}
	evictions := 0
	for {
		if a.opts.Trace.Canceled() {
			// Canceled runs leave no partial: the vector is valid but
			// the search is being abandoned, not escalated.
			return nil, false
		}
		n := a.nextUnassigned(a.prio)
		if n < 0 {
			break
		}
		cands := a.evaluate(n)
		list := a.feasibleList(cands)
		if len(list) > 0 {
			cl := a.selectCluster(n, list, cands)
			a.place(n, cl)
			a.opts.Trace.AssignCommit(ii, n, cl, false)
			continue
		}
		if !a.opts.Variant.iterative() {
			a.capturePartial(-1)
			return nil, false
		}
		used, ok := a.forcePlace(n, cands)
		evictions += used
		if !ok {
			if !a.opts.Trace.Canceled() {
				a.capturePartial(n)
			}
			return nil, false
		}
	}
	res := a.buildResult()
	res.Evictions = evictions
	return res, true
}

// Partial returns the last failed run's consistent partial assignment
// (per original node: cluster index or -1), the warm seed for a retry
// at a larger II — or nil when the last run succeeded, was canceled,
// or ran on a unified machine. The slice is owned by the Problem and
// overwritten by the next failing run; callers handing it to another
// Problem concurrently must copy it first.
func (p *Problem) Partial() []int {
	if !p.a.hasPartial {
		return nil
	}
	return p.a.partial
}
