package pipeline

import (
	"context"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
)

// headlineMachines are the machines of the paper's three headline rows
// (EXPERIMENTS.md): two- and four-cluster bused GP machines and the
// point-to-point grid.
func headlineMachines() []*machine.Config {
	return []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedGP(4, 4, 2),
		machine.NewGrid4(2),
	}
}

// warmSuite is the paper's suite on one session per headline machine,
// every (loop, machine) pair scheduled once so every reusable buffer of
// the sessions has reached its high-water mark. Pair k is loop k/3 on
// machine k%3.
type warmSuite struct {
	loops    []*ddg.Graph
	sessions []*Session
}

func newWarmSuite(count int) *warmSuite {
	w := &warmSuite{loops: loopgen.Suite(loopgen.Options{Seed: 1, Count: count})}
	opts := Options{Assign: assign.Options{Variant: assign.HeuristicIterative}, CollectStats: true}
	for _, m := range headlineMachines() {
		w.sessions = append(w.sessions, NewSession(m, opts))
	}
	for k := 0; k < w.pairs(); k++ {
		w.schedule(k)
	}
	return w
}

func (w *warmSuite) pairs() int { return len(w.loops) * len(w.sessions) }

func (w *warmSuite) schedule(k int) {
	nm := len(w.sessions)
	w.sessions[k%nm].Schedule(context.Background(), w.loops[k/nm])
}

// TestWarmSessionScheduleAllocs gates the allocations of a warm
// Session.Schedule over the suite on the three headline machines. Each
// call still lints the graph, clones it into the annotated graph and
// builds that graph's adjacency and SCC caches, so it is not free; the
// bound is what those per-call structures need when they are flat.
func TestWarmSessionScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; accounting is meaningless")
	}
	if testing.Short() {
		t.Skip("schedules the suite on three machines")
	}
	const maxPerCall = 28
	w := newWarmSuite(loopgen.DefaultCount)
	pass := func() {
		for k := 0; k < w.pairs(); k++ {
			w.schedule(k)
		}
	}
	if per := testing.AllocsPerRun(1, pass) / float64(w.pairs()); per > maxPerCall {
		t.Fatalf("warm Session.Schedule allocates %.1f times per call, want <= %d", per, maxPerCall)
	}
}
