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
	// evicting lists the pairs whose warm-up call spent evictions.
	evicting []int
}

func newWarmSuite(count int) *warmSuite {
	w := &warmSuite{loops: loopgen.Suite(loopgen.Options{Seed: 1, Count: count})}
	opts := Options{Assign: assign.Options{Variant: assign.HeuristicIterative}, CollectStats: true}
	for _, m := range headlineMachines() {
		w.sessions = append(w.sessions, NewSession(m, opts))
	}
	for k := 0; k < w.pairs(); k++ {
		if out := w.schedule(k); out != nil && out.Stats.Evictions > 0 {
			w.evicting = append(w.evicting, k)
		}
	}
	return w
}

func (w *warmSuite) pairs() int { return len(w.loops) * len(w.sessions) }

// schedule runs pair k and returns its outcome, nil when it failed.
func (w *warmSuite) schedule(k int) *Outcome {
	nm := len(w.sessions)
	out, _ := w.sessions[k%nm].Schedule(context.Background(), w.loops[k/nm])
	return out
}

// TestWarmSessionScheduleAllocs gates the allocations of a warm
// Session.Schedule over the suite on the three headline machines. Each
// call still lints the graph, clones it into the annotated graph and
// builds that graph's adjacency and SCC caches, so it is not free; the
// bound is what those per-call structures need when they are flat
// (20.1 per call measured, rounded up).
func TestWarmSessionScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; accounting is meaningless")
	}
	if testing.Short() {
		t.Skip("schedules the suite on three machines")
	}
	const maxPerCall = 21
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

// TestForcedPlacementWork is a host-independent work gate on one warm
// pass of the suite on the three headline machines. Every full derive
// a call counts must be an engine build: Bind's is traced to the
// problem's construction trace, so these are the per-II resets, one per
// RunAt except a first RunAt at the bind II of 1. Forced placement
// therefore derives and rebuilds nothing. The forced placements and
// evictions are pinned because its victim sequences must not change.
func TestForcedPlacementWork(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules the suite on three machines")
	}
	want := map[string][2]int{
		"gp-2c-2b-1p": {1319, 1349},
		"gp-4c-4b-2p": {1567, 2085},
		"grid-4c-2p":  {735, 989},
	}
	w := newWarmSuite(loopgen.DefaultCount)
	got := map[string][2]int{}
	for k := 0; k < w.pairs(); k++ {
		out := w.schedule(k)
		if out == nil {
			continue
		}
		st := out.Stats
		builds := st.IICandidates + st.IIWarmFallbacks
		if out.MII == 1 {
			builds--
		}
		name := w.sessions[k%len(w.sessions)].m.Name
		if st.AssignFullDerives != builds {
			t.Fatalf("loop %d on %s: %d full derives, %d engine builds", k/len(w.sessions), name, st.AssignFullDerives, builds)
		}
		c := got[name]
		got[name] = [2]int{c[0] + st.ForcePlacements, c[1] + st.Evictions}
	}
	for name, c := range want {
		if got[name] != c {
			t.Errorf("%s: (forced placements, evictions) = %v, want %v", name, got[name], c)
		}
	}
}
