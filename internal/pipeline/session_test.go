package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/obs"
	"clustersched/internal/sched"
	"clustersched/internal/verify"
)

// searchMachines are deliberately narrow, so a good fraction of the
// synthetic loops fail at MII and the II search actually escalates —
// the regime where warm starts do something.
func searchMachines() []*machine.Config {
	return []*machine.Config{
		machine.NewBusedGP(2, 1, 1),
		machine.NewGrid4(2),
	}
}

// behavioralStats strips the fields excluded from the determinism
// contract (docs/OBSERVABILITY.md): the wall-clock phase times.
func behavioralStats(st obs.Stats) obs.Stats {
	st.MIITime, st.AssignTime, st.SchedTime = 0, 0, 0
	return st
}

// diffOutcomes reports the first difference between two outcomes that
// the determinism contract says must not exist.
func diffOutcomes(a, b *Outcome) error {
	switch {
	case a.II != b.II || a.MII != b.MII:
		return fmt.Errorf("II/MII %d/%d vs %d/%d", a.II, a.MII, b.II, b.MII)
	case a.AssignFailures != b.AssignFailures || a.SchedFailures != b.SchedFailures:
		return fmt.Errorf("failures %d/%d vs %d/%d",
			a.AssignFailures, a.SchedFailures, b.AssignFailures, b.SchedFailures)
	case !reflect.DeepEqual(a.Assignment.ClusterOf, b.Assignment.ClusterOf):
		return fmt.Errorf("ClusterOf %v vs %v", a.Assignment.ClusterOf, b.Assignment.ClusterOf)
	case !reflect.DeepEqual(a.Assignment.CopyTargets, b.Assignment.CopyTargets):
		return fmt.Errorf("CopyTargets %v vs %v", a.Assignment.CopyTargets, b.Assignment.CopyTargets)
	case a.Assignment.Copies != b.Assignment.Copies || a.Assignment.Evictions != b.Assignment.Evictions:
		return fmt.Errorf("copies/evictions %d/%d vs %d/%d",
			a.Assignment.Copies, a.Assignment.Evictions, b.Assignment.Copies, b.Assignment.Evictions)
	case !reflect.DeepEqual(a.Schedule.CycleOf, b.Schedule.CycleOf):
		return fmt.Errorf("CycleOf %v vs %v", a.Schedule.CycleOf, b.Schedule.CycleOf)
	case behavioralStats(a.Stats) != behavioralStats(b.Stats):
		return fmt.Errorf("stats {%s} vs {%s}", behavioralStats(a.Stats), behavioralStats(b.Stats))
	}
	return nil
}

// TestWarmStartNeverRaisesII checks the warm-start soundness
// guarantee: a warm probe falls back to a scratch run at the same II,
// so warm search succeeds whenever scratch search does and never
// commits a higher II — and its schedules still verify independently.
func TestWarmStartNeverRaisesII(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 17, Count: 40})
	for _, m := range searchMachines() {
		warmOpts := Options{
			Assign:       assign.Options{Variant: assign.HeuristicIterative},
			CollectStats: true,
			MaxIISlack:   16,
		}
		coldOpts := warmOpts
		coldOpts.DisableWarmStart = true
		warmS := NewSession(m, warmOpts)
		coldS := NewSession(m, coldOpts)
		var warmAgg, coldAgg obs.Stats
		for i, g := range loops {
			wo, werr := warmS.Schedule(context.Background(), g)
			co, cerr := coldS.Schedule(context.Background(), g)
			if cerr == nil && werr != nil {
				t.Fatalf("%s loop %d: scratch found II %d but warm search failed: %v", m.Name, i, co.II, werr)
			}
			if werr != nil {
				continue
			}
			warmAgg.Add(wo.Stats)
			if cerr == nil {
				coldAgg.Add(co.Stats)
				if wo.II > co.II {
					t.Errorf("%s loop %d: warm II %d above scratch II %d", m.Name, i, wo.II, co.II)
				}
			}
			in := sched.Input{
				Graph:       wo.Assignment.Graph,
				Machine:     m,
				ClusterOf:   wo.Assignment.ClusterOf,
				CopyTargets: wo.Assignment.CopyTargets,
				II:          wo.II,
			}
			if err := verify.Schedule(in, wo.Schedule); err != nil {
				t.Errorf("%s loop %d: warm schedule invalid: %v", m.Name, i, err)
			}
		}
		if warmAgg.IIWarmStarts == 0 {
			t.Errorf("%s: warm session never warm-started", m.Name)
		}
		if warmAgg.IIWarmFallbacks > warmAgg.IIWarmStarts {
			t.Errorf("%s: more fallbacks (%d) than warm starts (%d)",
				m.Name, warmAgg.IIWarmFallbacks, warmAgg.IIWarmStarts)
		}
		if coldAgg.IIWarmStarts != 0 || coldAgg.IIWarmFallbacks != 0 {
			t.Errorf("%s: DisableWarmStart still warm-started: %d/%d",
				m.Name, coldAgg.IIWarmStarts, coldAgg.IIWarmFallbacks)
		}
	}
}

// TestRunBatchMatchesPerLoop checks that sharding a loop set over
// per-worker sessions returns, in input order, exactly what one-shot
// RunContext returns per loop.
func TestRunBatchMatchesPerLoop(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 5, Count: 60})
	m := machine.NewBusedGP(2, 2, 1)
	opts := Options{
		Assign:       assign.Options{Variant: assign.HeuristicIterative},
		CollectStats: true,
	}
	batch := RunBatch(context.Background(), loops, m, opts, 4)
	if len(batch) != len(loops) {
		t.Fatalf("batch returned %d results for %d loops", len(batch), len(loops))
	}
	for i, g := range loops {
		ref, rerr := RunContext(context.Background(), g, m, opts)
		br := batch[i]
		if (rerr == nil) != (br.Err == nil) {
			t.Fatalf("loop %d: one-shot err %v, batch err %v", i, rerr, br.Err)
		}
		if rerr != nil {
			continue
		}
		if err := diffOutcomes(ref, br.Outcome); err != nil {
			t.Errorf("loop %d: one-shot vs batch: %v", i, err)
		}
	}
}

// TestRunBatchCanceled checks that a canceled batch reports an error
// on every unfinished entry instead of returning zero values.
func TestRunBatchCanceled(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 9, Count: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, br := range RunBatch(ctx, loops, machine.NewBusedGP(2, 2, 1), Options{}, 2) {
		if br.Outcome == nil && br.Err == nil {
			t.Fatal("canceled batch entry has neither outcome nor error")
		}
	}
}

// TestSessionReuseMatchesFreshSessions schedules the same loops twice
// through one Session; buffer reuse across loops must not leak state
// into later outcomes.
func TestSessionReuseMatchesFreshSessions(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 12, Count: 30})
	m := machine.NewGrid4(2)
	opts := Options{
		Assign:       assign.Options{Variant: assign.HeuristicIterative},
		CollectStats: true,
		MaxIISlack:   16,
	}
	s := NewSession(m, opts)
	for i, g := range loops {
		first, ferr := s.Schedule(context.Background(), g)
		ref, rerr := NewSession(m, opts).Schedule(context.Background(), g)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("loop %d: reused err %v, fresh err %v", i, ferr, rerr)
		}
		if ferr != nil {
			continue
		}
		if err := diffOutcomes(first, ref); err != nil {
			t.Errorf("loop %d: reused vs fresh session: %v", i, err)
		}
	}
}

// tripwire is an Observer that, once armed with n, runs fire on the
// n-th event it sees and disarms. Disarmed it only counts events, and
// notes how many it had seen when the search left its first candidate.
type tripwire struct {
	mu         sync.Mutex
	seen       int
	candidates int
	escalated  int
	left       int
	onFire     func()
}

func (w *tripwire) Event(e obs.Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seen++
	if e.Kind == obs.KindIICandidate {
		if w.candidates++; w.candidates == 2 {
			w.escalated = w.seen
		}
	}
	if w.left > 0 {
		if w.left--; w.left == 0 {
			w.onFire()
		}
	}
}

func (w *tripwire) arm(n int, fire func()) {
	w.mu.Lock()
	w.left, w.onFire = n, fire
	w.mu.Unlock()
}

// counts returns the events seen and the count at escalation, and
// starts counting afresh.
func (w *tripwire) counts() (seen, escalated int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	seen, escalated = w.seen, w.escalated
	w.seen, w.candidates, w.escalated = 0, 0, 0
	return seen, escalated
}

// TestSessionReuseAfterCancel: a Schedule cut short mid-search, by a
// canceled context or by an expired Options.Timeout, leaves its pooled
// problems and scratch buffers mid-run. The same Session must still
// schedule every later loop exactly like a fresh Session, which is
// what lets a long-running caller return the sessions of abandoned
// requests to its free list.
func TestSessionReuseAfterCancel(t *testing.T) {
	m := machine.NewGrid4(2)
	loops := loopgen.Suite(loopgen.Options{Seed: 12, Count: 40})
	// The victim is a loop whose search escalates past its MII; the
	// cut lands halfway through the escalated probes, where the
	// session holds a warm seed and pooled problems mid-run.
	var victim *ddg.Graph
	probe := NewSession(m, Options{Assign: assign.Options{Variant: assign.HeuristicIterative}})
	for _, g := range loops {
		if out, err := probe.Schedule(context.Background(), g); err == nil && out.II > out.MII {
			victim = g
			break
		}
	}
	if victim == nil {
		t.Fatal("no suite loop escalated past its MII on grid-4c-2p")
	}

	for _, tc := range []struct {
		name    string
		timeout time.Duration
		want    error
	}{
		{"cancel", 0, context.Canceled},
		{"timeout", 250 * time.Millisecond, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &tripwire{}
			opts := Options{
				Assign:       assign.Options{Variant: assign.HeuristicIterative},
				CollectStats: true,
				MaxIISlack:   16,
				Observer:     w,
				Timeout:      tc.timeout,
			}
			s := NewSession(m, opts)
			if _, err := s.Schedule(context.Background(), victim); err != nil {
				t.Fatalf("uncut victim: %v", err)
			}
			events, escalated := w.counts()
			if escalated == 0 {
				t.Fatal("uncut victim never escalated")
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fire := cancel
			if tc.timeout > 0 {
				fire = func() { time.Sleep(tc.timeout + 50*time.Millisecond) }
			}
			w.arm((escalated+events)/2, fire)
			if _, err := s.Schedule(ctx, victim); !errors.Is(err, tc.want) {
				t.Fatalf("cut run returned %v, want %v", err, tc.want)
			}

			for i, g := range append([]*ddg.Graph{victim}, loops...) {
				got, gerr := s.Schedule(context.Background(), g)
				ref, rerr := NewSession(m, opts).Schedule(context.Background(), g)
				if (gerr == nil) != (rerr == nil) {
					t.Fatalf("loop %d: reused err %v, fresh err %v", i, gerr, rerr)
				}
				if gerr != nil {
					continue
				}
				if err := diffOutcomes(got, ref); err != nil {
					t.Errorf("loop %d: session reused after %s vs fresh: %v", i, tc.name, err)
				}
			}
		})
	}
}

// FuzzPipelineWarmStart feeds random loops and machines through the
// session's warm search, the reference windowed walk
// (oracleSchedule), and the scratch (warm-disabled) search: the
// session must be byte-identical to the oracle, warm must succeed
// whenever scratch does without raising the II, and every schedule
// must pass independent verification.
func FuzzPipelineWarmStart(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(2), uint8(0))
	f.Add(int64(4), uint8(0), uint8(1))
	f.Add(int64(5), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, mSel, sSel uint8) {
		machines := []*machine.Config{
			machine.NewBusedGP(2, 1, 1),
			machine.NewGrid4(2),
			machine.NewBusedGP(2, 2, 1),
		}
		m := machines[int(mSel)%len(machines)]
		g := loopgen.Loop(rand.New(rand.NewSource(seed)))
		warmOpts := Options{
			Assign:       assign.Options{Variant: assign.HeuristicIterative},
			Scheduler:    Scheduler(int(sSel) % 2),
			CollectStats: true,
			MaxIISlack:   16,
		}
		coldOpts := warmOpts
		coldOpts.DisableWarmStart = true

		wo, werr := NewSession(m, warmOpts).Schedule(context.Background(), g)
		oo, oerr := oracleSchedule(context.Background(), g, m, warmOpts)
		co, cerr := NewSession(m, coldOpts).Schedule(context.Background(), g)

		if err := diffOracle(wo, werr, oo, oerr); err != nil {
			t.Fatalf("session vs oracle: %v", err)
		}
		if cerr == nil && werr != nil {
			t.Fatalf("scratch found II %d but warm search failed: %v", co.II, werr)
		}
		if werr != nil {
			return
		}
		if cerr == nil && wo.II > co.II {
			t.Fatalf("warm II %d above scratch II %d", wo.II, co.II)
		}
		in := sched.Input{
			Graph:       wo.Assignment.Graph,
			Machine:     m,
			ClusterOf:   wo.Assignment.ClusterOf,
			CopyTargets: wo.Assignment.CopyTargets,
			II:          wo.II,
		}
		if err := verify.Schedule(in, wo.Schedule); err != nil {
			t.Fatalf("warm schedule invalid: %v", err)
		}
	})
}

// BenchmarkRunBatch measures batch throughput over the synthetic suite
// at several worker counts; scripts/check.sh smoke-runs it.
func BenchmarkRunBatch(b *testing.B) {
	loops := loopgen.Suite(loopgen.Options{Seed: 1, Count: 100})
	m := machine.NewBusedGP(2, 2, 1)
	opts := Options{Assign: assign.Options{Variant: assign.HeuristicIterative}}
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunBatch(context.Background(), loops, m, opts, w)
			}
		})
	}
}

// BenchmarkSessionSchedule isolates the single-worker session savings:
// the same suite through one reusable Session, warm starts on and off,
// against the per-loop one-shot path.
func BenchmarkSessionSchedule(b *testing.B) {
	loops := loopgen.Suite(loopgen.Options{Seed: 1, Count: 100})
	m := machine.NewBusedGP(2, 2, 1)
	opts := Options{Assign: assign.Options{Variant: assign.HeuristicIterative}}
	b.Run("session-warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewSession(m, opts)
			for _, g := range loops {
				s.Schedule(context.Background(), g)
			}
		}
	})
	b.Run("session-scratch", func(b *testing.B) {
		cold := opts
		cold.DisableWarmStart = true
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewSession(m, cold)
			for _, g := range loops {
				s.Schedule(context.Background(), g)
			}
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range loops {
				Run(g, m, opts)
			}
		}
	})
	// One op is one warm Session.Schedule call: the paper's suite on the
	// three headline machines, each session already past a full pass.
	b.Run("session-warm-3machines", func(b *testing.B) {
		w := newWarmSuite(loopgen.DefaultCount)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.schedule(i % w.pairs())
		}
	})
	// The tail of session-warm-3machines: one op is one warm call on a
	// pair whose warm-up call spent evictions, chosen by that counter,
	// not by timing.
	b.Run("session-warm-evicting", func(b *testing.B) {
		w := newWarmSuite(loopgen.DefaultCount)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.schedule(w.evicting[i%len(w.evicting)])
		}
		b.ReportMetric(float64(len(w.evicting)), "pairs")
	})
}
