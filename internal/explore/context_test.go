package explore

import (
	"context"
	"errors"
	"testing"

	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
)

func TestEvaluateContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	loops := loopgen.Suite(loopgen.Options{Count: 20})
	p, err := EvaluateContext(ctx, machine.NewBusedGP(2, 2, 1), loops, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p.Scheduled != 0 {
		t.Errorf("scheduled %d loops under a pre-canceled context, want 0", p.Scheduled)
	}
}

func TestSweepContextStopsAtCanceledDesign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	loops := loopgen.Suite(loopgen.Options{Count: 10})
	designs := DefaultDesigns()
	points, err := SweepContext(ctx, designs, loops, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(points) != 1 {
		t.Errorf("got %d points, want 1 (abort at the first design)", len(points))
	}
}

// TestEvaluateContextMatchesEvaluate checks that two workers measure
// the same point as one.
func TestEvaluateContextMatchesEvaluate(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Count: 15})
	m := machine.NewBusedGP(2, 2, 1)
	want := evaluate(m, loops, 1)
	got, err := EvaluateContext(context.Background(), m, loops, 2)
	if err != nil {
		t.Fatalf("EvaluateContext: %v", err)
	}
	if got.MatchPct != want.MatchPct || got.AvgII != want.AvgII || got.Scheduled != want.Scheduled {
		t.Errorf("2 workers %+v != 1 worker %+v", got, want)
	}
}
