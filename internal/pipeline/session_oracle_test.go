package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/diag"
	"clustersched/internal/lint"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
	"clustersched/internal/obs"
	"clustersched/internal/sched"
)

// oracleWindow is the probe window of the reference walk.
const oracleWindow = 4

// oracleProbe is the result of one reference candidate-II probe.
type oracleProbe struct {
	ok        bool
	res       *assign.Result
	sch       *sched.Schedule
	partial   []int
	stats     obs.Stats
	assignErr bool
}

// oracleSchedule is the reference II search Session.Schedule must
// reproduce: the MII alone, then windows of oracleWindow candidates,
// every probe of a window warm-started from the partial the previous
// window's last probe left behind, stopping at the first success. Each
// probe runs on a freshly built problem and scheduler scratch and
// traces into its own obs.Trace whose counters are merged afterwards,
// so nothing is shared between probes but the graph, the machine and
// the copied seed.
func oracleSchedule(ctx context.Context, g *ddg.Graph, m *machine.Config, opts Options) (*Outcome, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if err := diag.AsError(lint.Graph(g)); err != nil {
		return nil, fmt.Errorf("pipeline: invalid graph: %w", err)
	}
	if err := diag.AsError(lint.Machine(m)); err != nil {
		return nil, fmt.Errorf("pipeline: invalid machine: %w", err)
	}
	slack := opts.MaxIISlack
	if slack <= 0 {
		slack = DefaultMaxIISlack
	}
	tr := obs.New(ctx, opts.Observer, opts.CollectStats)
	tm := tr.BeginPhase(obs.PhaseMII, 0)
	out := &Outcome{MII: mii.MII(g, m)}
	tr.EndPhase(obs.PhaseMII, out.MII, tm, true)

	probe := func(ii int, seed []int) (po oracleProbe) {
		ptr := obs.New(ctx, opts.Observer, tr != nil)
		p := assign.NewProblem(g, m, opts.Assign)
		run := func(seed []int) []int {
			ta := ptr.BeginPhase(obs.PhaseAssign, ii)
			res, aok := p.RunAt(ii, seed, ptr)
			ptr.EndPhase(obs.PhaseAssign, ii, ta, aok)
			po.res, po.sch = res, nil
			if !aok {
				return p.Partial()
			}
			in := sched.Input{
				Graph: res.Graph, Machine: m, ClusterOf: res.ClusterOf,
				CopyTargets: res.CopyTargets, II: ii, Trace: ptr,
				Scratch: new(sched.Scratch),
			}
			ts := ptr.BeginPhase(obs.PhaseSched, ii)
			var sok bool
			if opts.Scheduler == SMS {
				po.sch, sok = sched.SMS(in, opts.SchedBudgetRatio)
			} else {
				po.sch, sok = sched.IMS(in, opts.SchedBudgetRatio)
			}
			ptr.EndPhase(obs.PhaseSched, ii, ts, sok)
			if !sok {
				po.sch = nil
				return res.ClusterOf[:res.NumOriginal]
			}
			return nil
		}
		defer func() {
			if ptr != nil {
				po.stats = ptr.Stats
			}
		}()
		ptr.IICandidate(ii)
		if len(seed) > 0 && !opts.DisableWarmStart {
			ptr.WarmStart()
			if run(seed); po.sch != nil {
				po.ok = true
				return po
			}
			if ptr.Canceled() {
				return po
			}
			ptr.WarmFallback()
		}
		partial := run(nil)
		if po.sch != nil {
			po.ok = true
			return po
		}
		po.assignErr = po.res == nil
		if partial != nil && !ptr.Canceled() {
			po.partial = append([]int(nil), partial...)
		}
		return po
	}
	consume := func(po oracleProbe) *Outcome {
		if tr != nil {
			tr.Stats.Add(po.stats)
		}
		if po.ok {
			return out
		}
		if po.assignErr {
			out.AssignFailures++
		} else {
			out.SchedFailures++
		}
		return nil
	}
	finish := func(ii int, po oracleProbe) (*Outcome, error) {
		out.II, out.Assignment, out.Schedule = ii, po.res, po.sch
		if tr != nil {
			out.Stats = tr.Stats
		}
		return out, nil
	}

	if err := tr.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: search canceled at II %d (MII %d): %w", out.MII, out.MII, err)
	}
	po := probe(out.MII, nil)
	if consume(po) != nil {
		return finish(out.MII, po)
	}
	seed := po.partial
	maxII := out.MII + slack
	for base := out.MII + 1; base <= maxII; base += oracleWindow {
		if err := tr.Err(); err != nil {
			return nil, fmt.Errorf("pipeline: search canceled at II %d (MII %d): %w", base, out.MII, err)
		}
		for ii := base; ii < base+oracleWindow && ii <= maxII; ii++ {
			po = probe(ii, seed)
			if consume(po) != nil {
				return finish(ii, po)
			}
		}
		seed = po.partial
	}
	if err := tr.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: search canceled (MII %d): %w", out.MII, err)
	}
	return nil, fmt.Errorf("pipeline: no schedule for %q within II <= %d (MII %d)",
		m.Name, maxII, out.MII)
}

// eventLog records an observer's event stream with durations zeroed,
// the one field the determinism contract leaves free.
type eventLog []obs.Event

func (l *eventLog) Event(e obs.Event) {
	e.Dur = 0
	*l = append(*l, e)
}

// TestSessionMatchesWindowedOracle pins the flat, sequential II loop
// of Session.Schedule to the reference windowed walk: the same II,
// assignment, schedule, failure counts, every non-timing counter and
// the identical observer event stream, loop for loop, on the narrow
// search machines and the paper's headline machines, at a tight and
// the default II slack, under both phase-two schedulers.
func TestSessionMatchesWindowedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules two suites twice per configuration")
	}
	machines := append(searchMachines(), headlineMachines()...)
	var warm obs.Stats
	for _, seed := range []int64{17, 33} {
		loops := loopgen.Suite(loopgen.Options{Seed: seed, Count: 40})
		for _, m := range machines {
			for _, slack := range []int{16, 0} {
				for _, sc := range []Scheduler{IMS, SMS} {
					for _, v := range []assign.Variant{assign.Simple, assign.HeuristicIterative} {
						name := fmt.Sprintf("seed%d/%s/slack%d/%s/%s", seed, m.Name, slack, sc, v)
						var got, want eventLog
						opts := Options{
							Assign:     assign.Options{Variant: v},
							Scheduler:  sc,
							MaxIISlack: slack,
						}
						sopts, oopts := opts, opts
						sopts.Observer, oopts.Observer = &got, &want
						s := NewSession(m, sopts)
						for i, g := range loops {
							got, want = got[:0], want[:0]
							so, serr := s.Schedule(context.Background(), g)
							oo, oerr := oracleSchedule(context.Background(), g, m, oopts)
							if err := diffOracle(so, serr, oo, oerr); err != nil {
								t.Fatalf("%s loop %d: session vs oracle: %v", name, i, err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s loop %d: event streams differ (%d vs %d events)", name, i, len(got), len(want))
							}
							if so != nil {
								warm.Add(so.Stats)
							}
						}
					}
				}
			}
		}
	}
	// The comparison is vacuous unless the seed path ran: the narrow
	// machines must have forced warm starts and fallbacks.
	if warm.IIWarmStarts == 0 || warm.IIWarmFallbacks == 0 {
		t.Errorf("warm starts %d, fallbacks %d: the oracle never exercised the seed path",
			warm.IIWarmStarts, warm.IIWarmFallbacks)
	}
}

// diffOracle compares a session run with an oracle run: both fail
// with the same message, or both succeed with outcomes diffOutcomes
// accepts.
func diffOracle(so *Outcome, serr error, oo *Outcome, oerr error) error {
	switch {
	case (serr == nil) != (oerr == nil):
		return fmt.Errorf("session err %v, oracle err %v", serr, oerr)
	case serr != nil:
		if serr.Error() != oerr.Error() {
			return fmt.Errorf("error %q vs %q", serr, oerr)
		}
		return nil
	}
	return diffOutcomes(so, oo)
}
