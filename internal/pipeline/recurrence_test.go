package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"clustersched/internal/ddg"
	"clustersched/internal/frontend"
	"clustersched/internal/machine"
	"clustersched/internal/obs"
)

// longRecurrence compiles one `s = s + a[i+k]` loop of the given
// number of operations (odd: a load and an add per statement, plus the
// loop's branch), a single recurrence through every add.
func longRecurrence(tb testing.TB, ops int) *ddg.Graph {
	tb.Helper()
	var b strings.Builder
	b.WriteString("loop rec {\n")
	for k := 0; k < ops/2; k++ {
		fmt.Fprintf(&b, "s = s + a[i+%d]\n", k)
	}
	b.WriteString("}\n")
	loops, err := frontend.Compile(b.String())
	if err != nil {
		tb.Fatal(err)
	}
	g := loops[0].Graph
	if g.NumNodes() != ops {
		tb.Fatalf("recurrence has %d operations, want %d", g.NumNodes(), ops)
	}
	return g
}

// BenchmarkLongRecurrence schedules one long recurrence through a
// reused Session on gp-2c-2b-1p: the loop shape whose bound passes
// (RecMII, the start-time relaxations) dominate when they are not
// near-linear.
func BenchmarkLongRecurrence(b *testing.B) {
	m := machine.NewBusedGP(2, 2, 1)
	for _, ops := range []int{1023, 4095} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			g := longRecurrence(b, ops)
			s := NewSession(m, Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// phaseLog records the phase events of a run. Observers see events
// synchronously from the scheduling goroutine, so it needs no lock.
type phaseLog struct {
	events []obs.Event
}

func (l *phaseLog) Event(e obs.Event) {
	if e.Kind == obs.KindPhaseBegin || e.Kind == obs.KindPhaseEnd {
		l.events = append(l.events, e)
	}
}

func (l *phaseLog) count(kind obs.EventKind, phase string) int {
	n := 0
	for _, e := range l.events {
		if e.Kind == kind && e.Phase == phase {
			n++
		}
	}
	return n
}

// TestScheduleDeadContextSkipsBounds: a context that is already done
// ends Schedule with the wrapped context error before the MII phase
// begins, so a dead request pays for no bound pass.
func TestScheduleDeadContextSkipsBounds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var log phaseLog
	s := NewSession(machine.NewBusedGP(2, 2, 1), Options{Observer: &log})
	out, err := s.Schedule(ctx, longRecurrence(t, 1023))
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Schedule = %v, %v; want the wrapped context.Canceled", out, err)
	}
	if n := log.count(obs.KindPhaseBegin, obs.PhaseMII); n != 0 {
		t.Errorf("observer saw %d MII phase begins, want 0", n)
	}
}

// TestScheduleDeadlineInBoundPass: a deadline that expires while the
// MII phase of a 4095-op recurrence runs ends the call with the wrapped
// deadline error inside that phase — the bound pass polls the call's
// trace — instead of a schedule. The observer holds the phase open
// until the deadline has passed, so the expiry lands inside it on any
// host.
func TestScheduleDeadlineInBoundPass(t *testing.T) {
	g := longRecurrence(t, 4095)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var log phaseLog
	observer := obs.ObserverFunc(func(e obs.Event) {
		if e.Kind == obs.KindPhaseBegin && e.Phase == obs.PhaseMII {
			<-ctx.Done()
		}
		log.Event(e)
	})
	s := NewSession(machine.NewBusedGP(2, 2, 1), Options{Observer: observer})
	out, err := s.Schedule(ctx, g)
	if out != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Schedule = %v, %v; want the wrapped context.DeadlineExceeded", out, err)
	}
	if n := log.count(obs.KindPhaseBegin, obs.PhaseAssign); n != 0 {
		t.Errorf("observer saw %d assignment phases, want 0: the bound pass did not stop", n)
	}
	if last := log.events[len(log.events)-1]; last.Kind != obs.KindPhaseEnd || last.Phase != obs.PhaseMII || last.OK {
		t.Errorf("last phase event %+v, want a failed MII phase end", last)
	}
	// The session stays usable.
	if _, err := s.Schedule(context.Background(), longRecurrence(t, 1023)); err != nil {
		t.Fatalf("session after the deadline: %v", err)
	}
}
