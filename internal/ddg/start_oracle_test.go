package ddg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"clustersched/internal/obs"
)

// oracleEarliestStart is the edge-order Bellman-Ford the topologically
// ordered relaxation replaced: every round sweeps the edge list in
// insertion order, and a graph still changing after n+1 rounds has a
// positive cycle.
func oracleEarliestStart(g *Graph, lat LatencyFunc, ii int) ([]int, bool) {
	n := len(g.Nodes)
	estart := make([]int, n)
	w := make([]int, len(g.Edges))
	for i, e := range g.Edges {
		w[i] = lat(g.Nodes[e.From].Kind) - ii*e.Distance
	}
	for round := 0; round <= n; round++ {
		changed := false
		for i, e := range g.Edges {
			if t := estart[e.From] + w[i]; t > estart[e.To] {
				estart[e.To] = t
				changed = true
			}
		}
		if !changed {
			return estart, true
		}
	}
	return estart, false
}

// oracleLatestStart mirrors oracleEarliestStart backwards from the
// horizon the earliest starts imply, one edge-order sweep per round.
func oracleLatestStart(g *Graph, lat LatencyFunc, ii int) ([]int, bool) {
	estart, ok := oracleEarliestStart(g, lat, ii)
	if !ok {
		return nil, false
	}
	horizon := 0
	for i, t := range estart {
		if end := t + lat(g.Nodes[i].Kind); end > horizon {
			horizon = end
		}
	}
	n := len(g.Nodes)
	lstart := make([]int, n)
	for i := range lstart {
		lstart[i] = horizon - lat(g.Nodes[i].Kind)
	}
	for round := 0; round <= n; round++ {
		changed := false
		for _, e := range g.Edges {
			if t := lstart[e.To] - lat(g.Nodes[e.From].Kind) + ii*e.Distance; t < lstart[e.From] {
				lstart[e.From] = t
				changed = true
			}
		}
		if !changed {
			return lstart, true
		}
	}
	return nil, false
}

// spreadLat gives the kinds the spread of latencies Table 2 has.
func spreadLat(k OpKind) int { return [...]int{1, 1, 1, 2, 1, 3, 3, 9, 9, 1}[k] }

// checkStartOracles compares the start-time analyses with the oracles
// at a range of IIs, through a fresh and a reused scratch and through
// every latest-start entry point. Graphs whose nodes or edge endpoints
// are malformed are skipped: neither implementation accepts them.
func checkStartOracles(g *Graph, sc *StartScratch) error {
	for i, nd := range g.Nodes {
		if nd == nil || nd.ID != i || nd.Kind < 0 || int(nd.Kind) >= NumOpKinds {
			return nil
		}
	}
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			return nil
		}
	}
	for _, lat := range []LatencyFunc{unitLat, spreadLat} {
		for _, ii := range []int{1, 2, 3, 5, 9, 40} {
			we, wok := oracleEarliestStart(g, lat, ii)
			ge, gok := g.EarliestStartInto(sc, lat, ii, nil)
			if gok != wok || (wok && !sameInts(ge, we)) {
				return fmt.Errorf("II %d: EarliestStart = %v, %v; oracle %v, %v", ii, ge, gok, we, wok)
			}
			wl, wlok := oracleLatestStart(g, lat, ii)
			if gok {
				gl, glok := g.LatestStartFrom(sc, ii, ge, nil)
				if glok != wlok || !sameInts(gl, wl) {
					return fmt.Errorf("II %d: LatestStartFrom = %v, %v; oracle %v, %v", ii, gl, glok, wl, wlok)
				}
			}
			gl, glok := g.LatestStartInto(sc, lat, ii, nil)
			if glok != wlok || !sameInts(gl, wl) {
				return fmt.Errorf("II %d: LatestStartInto = %v, %v; oracle %v, %v", ii, gl, glok, wl, wlok)
			}
			fl, flok := g.LatestStartInto(new(StartScratch), lat, ii, nil)
			if flok != wlok || !sameInts(fl, wl) {
				return fmt.Errorf("II %d: LatestStartInto on a fresh scratch = %v, %v; oracle %v, %v", ii, fl, flok, wl, wlok)
			}
		}
	}
	return nil
}

// sameInts compares two vectors element-wise (nil equals empty).
func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomLoopGraph builds a graph whose distance-0 edges run forward in
// a random permutation of the nodes, so it is valid, plus loop-carried
// edges in any direction; dense back edges at small II give positive
// cycles, sparse ones converging graphs.
func randomLoopGraph(rng *rand.Rand, n, edges int) *Graph {
	g := NewGraph(n, edges)
	for i := 0; i < n; i++ {
		g.AddNode(OpKind(rng.Intn(NumOpKinds)), "")
	}
	perm := rng.Perm(n)
	for k := 0; k < edges; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if rng.Intn(3) > 0 && a != b {
			if perm[a] > perm[b] {
				a, b = b, a
			}
			g.AddEdge(perm[a], perm[b], 0)
			continue
		}
		g.AddEdge(perm[a], perm[b], 1+rng.Intn(3))
	}
	return g
}

// TestStartTimesMatchOracle is the differential test of the
// topologically ordered relaxations against the edge-order
// Bellman-Ford: converging and positive-cycle graphs, shuffled edge
// insertion orders, long chains with one closing recurrence, and one
// scratch reused across all of them.
func TestStartTimesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sc StartScratch
	converged, diverged := 0, 0
	for i := 0; i < 400; i++ {
		n := 1 + rng.Intn(30)
		g := randomLoopGraph(rng, n, rng.Intn(3*n))
		if err := checkStartOracles(g, &sc); err != nil {
			t.Fatalf("graph %d: %v\n%s", i, err, g)
		}
		if _, ok := g.EarliestStartInto(new(StartScratch), unitLat, 2, nil); ok {
			converged++
		} else {
			diverged++
		}
	}
	if converged == 0 || diverged == 0 {
		t.Fatalf("converged %d, diverged %d: the corpus must exercise both outcomes", converged, diverged)
	}
	for _, n := range []int{2, 17, 300} {
		// A chain inserted back to front, closed by one recurrence.
		g := NewGraph(n, n)
		for i := 0; i < n; i++ {
			g.AddNode(OpALU, "")
		}
		for i := n - 1; i > 0; i-- {
			g.AddEdge(i-1, i, 0)
		}
		g.AddEdge(n-1, 0, 1)
		if err := checkStartOracles(g, &sc); err != nil {
			t.Fatalf("chain %d: %v", n, err)
		}
	}
}

// TestStartTimesStopWhenCanceled: a canceled trace stops both passes
// before they relax anything, and they report no convergence.
func TestStartTimesStopWhenCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := new(obs.Trace).Renew(ctx, nil, false)
	g := chain(50)
	var sc StartScratch
	if _, ok := g.EarliestStartInto(&sc, unitLat, 1, tr); ok {
		t.Error("EarliestStartInto converged under a canceled trace")
	}
	if _, ok := g.LatestStartInto(&sc, unitLat, 1, tr); ok {
		t.Error("LatestStartInto converged under a canceled trace")
	}
	est, ok := g.EarliestStartInto(&sc, unitLat, 1, nil)
	if !ok {
		t.Fatal("chain does not converge")
	}
	if _, ok := g.LatestStartFrom(&sc, 1, est, tr); ok {
		t.Error("LatestStartFrom converged under a canceled trace")
	}
}
