package order

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/mii"
	"clustersched/internal/obs"
)

// TestScratchComputeMatchesFresh pins the scratch contract across the
// corpus shapes the fuzz layer generates: a warm, arena-backed Compute
// is element-identical to a fresh-allocation run, for both the order
// and the ranked sets, no matter what graph it last ran on.
func TestScratchComputeMatchesFresh(t *testing.T) {
	var s Scratch
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		g := loopgen.Loop(rng)
		warm := s.Compute(g, lat)
		fresh := Compute(g, lat)
		if !reflect.DeepEqual(warm, fresh) {
			t.Fatalf("loop %d: scratch order %v != fresh %v", i, warm, fresh)
		}
	}
}

// sizedChain builds a dependence chain of n ALU operations with a
// closing recurrence, for exercising one scratch across graphs of
// wildly different sizes.
func sizedChain(n int) *ddg.Graph {
	g := ddg.NewGraph(n, n)
	for i := 0; i < n; i++ {
		g.AddNode(ddg.OpALU, fmt.Sprintf("n%d", i))
	}
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i, 0)
	}
	g.AddEdge(n-1, 0, 1)
	return g
}

// TestScratchComputeAcrossSizes rebinds one scratch across graphs of
// wildly different sizes, the pattern a session-owned scratch sees.
func TestScratchComputeAcrossSizes(t *testing.T) {
	var s Scratch
	graphs := []*ddg.Graph{
		sizedChain(2), sizedChain(300), sizedChain(5),
		loopgen.Loop(rand.New(rand.NewSource(4))), sizedChain(60), sizedChain(3),
	}
	for round := 0; round < 3; round++ {
		for gi, g := range graphs {
			warm := s.Compute(g, lat)
			fresh := Compute(g, lat)
			if !reflect.DeepEqual(warm, fresh) {
				t.Fatalf("graph %d round %d: scratch order diverges", gi, round)
			}
		}
	}
}

// TestScratchComputeWarmAllocFree gates the arena payoff: after the
// first call on a graph shape, repeated per-II recomputation allocates
// nothing.
func TestScratchComputeWarmAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; accounting is meaningless")
	}
	loops := loopgen.Suite(loopgen.Options{Seed: 17, Count: 4})
	var s Scratch
	for _, g := range loops {
		for i := 0; i < 2; i++ {
			s.Compute(g, lat)
		}
	}
	for gi, g := range loops {
		g := g
		if avg := testing.AllocsPerRun(20, func() { s.Compute(g, lat) }); avg != 0 {
			t.Fatalf("loop %d: warm Compute allocates %.1f times per call, want 0", gi, avg)
		}
	}
}

// TestComputeWithSharedBounds: handing ComputeWith the per-SCC vector a
// caller already computed yields exactly the order Compute derives on
// its own, and a canceled trace still yields a permutation of the
// nodes.
func TestComputeWithSharedBounds(t *testing.T) {
	var s, fresh Scratch
	var rs mii.RecScratch
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := obs.New(ctx, nil, false)
	for i, g := range loopgen.Suite(loopgen.Options{Seed: 23, Count: 60}) {
		recs, ok := rs.SCCRecMIIs(g, lat, nil)
		if !ok {
			t.Fatal("SCCRecMIIs did not complete")
		}
		got := append([]int(nil), s.ComputeWith(g, lat, recs, nil)...)
		if want := fresh.Compute(g, lat); !reflect.DeepEqual(got, want) {
			t.Fatalf("loop %d: ComputeWith %v, Compute %v", i, got, want)
		}
		perm := s.ComputeWith(g, lat, nil, dead)
		seen := make([]bool, g.NumNodes())
		for _, v := range perm {
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok || len(perm) != g.NumNodes() {
				t.Fatalf("loop %d: canceled order %v misses node %d", i, perm, v)
			}
		}
	}
}
