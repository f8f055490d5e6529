package mii

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
	"clustersched/internal/obs"
)

// oracleSCCRecMII is the binary search the policy iteration replaced:
// the smallest II in [1, 1 + the component's total latency) at which
// an edge-order Bellman-Ford over the component's edges, weighted
// latency(from) - II*distance, converges; the upper end when none does.
func oracleSCCRecMII(g *ddg.Graph, comp []int, lat ddg.LatencyFunc) int {
	var from, to, w0, dist []int
	hi := 1
	for _, n := range comp {
		hi += lat(g.Nodes[n].Kind)
		for _, e := range g.OutEdges(n) {
			i := sort.SearchInts(comp, e.To)
			if i < len(comp) && comp[i] == e.To {
				from = append(from, e.From)
				to = append(to, e.To)
				w0 = append(w0, lat(g.Nodes[e.From].Kind))
				dist = append(dist, e.Distance)
			}
		}
	}
	est := make([]int, g.NumNodes())
	feasible := func(ii int) bool {
		for _, n := range comp {
			est[n] = 0
		}
		for round := 0; round <= len(comp); round++ {
			changed := false
			for i, f := range from {
				if t := est[f] + w0[i] - ii*dist[i]; t > est[to[i]] {
					est[to[i]] = t
					changed = true
				}
			}
			if !changed {
				return true
			}
		}
		return false
	}
	lo := 1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// checkRecOracle compares SCCRecMIIs, through the reused scratch rs,
// with the binary-search oracle on every component of g.
func checkRecOracle(t *testing.T, g *ddg.Graph, lat ddg.LatencyFunc, rs *RecScratch) {
	t.Helper()
	recs, ok := rs.SCCRecMIIs(g, lat, nil)
	comps := g.NonTrivialSCCs()
	if !ok || len(recs) != len(comps) {
		t.Fatalf("SCCRecMIIs = %v, %v for %d components", recs, ok, len(comps))
	}
	want := 1
	for i, c := range comps {
		w := oracleSCCRecMII(g, c.Nodes, lat)
		if recs[i] != w {
			t.Fatalf("component %v: RecMII %d, oracle %d\n%s", c.Nodes, recs[i], w, g)
		}
		if w > want {
			want = w
		}
	}
	if got := RecMII(g, lat); got != want {
		t.Fatalf("RecMII %d, oracle %d\n%s", got, want, g)
	}
}

// recGraph builds a random graph from a byte stream: the first byte
// sizes it, each following triple is an edge whose distance is drawn
// from {0, 0, 1, 1, 2, 3, 7, 40}. Distance-0 edges may close cycles,
// which both implementations must price alike.
func recGraph(data []byte) *ddg.Graph {
	n := 1 + int(data[0]%16)
	g := ddg.NewGraph(n, len(data)/3)
	for i := 0; i < n; i++ {
		g.AddNode(ddg.OpKind((i*7+int(data[0]))%ddg.NumOpKinds), "")
	}
	for k := 1; k+2 < len(data); k += 3 {
		g.AddEdge(int(data[k])%n, int(data[k+1])%n, [...]int{0, 0, 1, 1, 2, 3, 7, 40}[data[k+2]%8])
	}
	return g
}

// FuzzSCCRecMIIOracle checks the exact per-component RecMII against the
// binary-search oracle on random strongly connected components.
func FuzzSCCRecMIIOracle(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 1, 2, 0, 2, 0, 2})
	f.Add([]byte{5, 0, 1, 0, 1, 0, 3, 1, 2, 1, 2, 3, 4, 3, 4, 2, 4, 0, 5})
	f.Add([]byte{2, 0, 0, 6, 1, 1, 7, 0, 1, 0, 1, 0, 0})
	f.Add([]byte{4, 0, 1, 0, 1, 0, 0, 2, 3, 2})
	var rs RecScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := recGraph(data)
		checkRecOracle(t, g, lat, &rs)
		checkRecOracle(t, g, machine.NewBusedFS(2, 2, 1).Latency, &rs)
	})
}

// TestSCCRecMIIMatchesOracle runs the oracle comparison over a seeded
// corpus of dense random graphs, several components each, and over
// rings long enough that many policies compete.
func TestSCCRecMIIMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rs RecScratch
	for i := 0; i < 2000; i++ {
		data := make([]byte, 1+rng.Intn(60))
		rng.Read(data)
		checkRecOracle(t, recGraph(data), lat, &rs)
	}
	for _, n := range []int{2, 9, 64} {
		g := ddg.NewGraph(n, 3*n)
		for i := 0; i < n; i++ {
			g.AddNode(ddg.OpKind(rng.Intn(ddg.NumOpKinds-1)), "")
		}
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n, boolDist(i == n-1))
			g.AddEdge(i, rng.Intn(n), 1+rng.Intn(4))
		}
		checkRecOracle(t, g, lat, &rs)
	}
}

func boolDist(carried bool) int {
	if carried {
		return 1
	}
	return 0
}

// TestSCCRecMIIsStopsWhenCanceled: a canceled trace stops the bound
// before any component is solved.
func TestSCCRecMIIsStopsWhenCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := ddg.NewGraph(2, 2)
	g.AddNode(ddg.OpFDiv, "")
	g.AddNode(ddg.OpFDiv, "")
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 0, 1)
	var rs RecScratch
	if _, ok := rs.SCCRecMIIs(g, lat, obs.New(ctx, nil, false)); ok {
		t.Error("SCCRecMIIs completed under a canceled trace")
	}
	if _, _, ok := NewMachine(machine.NewBusedGP(2, 2, 1)).MIIWith(g, &rs, obs.New(ctx, nil, false)); ok {
		t.Error("MIIWith completed under a canceled trace")
	}
	if recs, ok := rs.SCCRecMIIs(g, lat, nil); !ok || recs[0] != 18 {
		t.Errorf("after the canceled calls: SCCRecMIIs = %v, %v; want [18]", recs, ok)
	}
}
