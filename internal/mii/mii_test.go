package mii

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

func lat(k ddg.OpKind) int { return machine.DefaultLatencies()[k] }

func TestResMIIGeneralPurpose(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1) // 8 GP units
	g := ddg.NewGraph(9, 0)
	for i := 0; i < 9; i++ {
		g.AddNode(ddg.OpALU, "")
	}
	if got := ResMII(g, m); got != 2 {
		t.Errorf("ResMII = %d, want ceil(9/8)=2", got)
	}
}

func TestResMIIPerClassBinding(t *testing.T) {
	m := machine.NewBusedFS(2, 2, 1) // 2 mem, 4 int, 2 fp
	g := ddg.NewGraph(8, 0)
	for i := 0; i < 5; i++ {
		g.AddNode(ddg.OpLoad, "") // 5 memory ops on 2 memory units
	}
	g.AddNode(ddg.OpALU, "")
	g.AddNode(ddg.OpFAdd, "")
	if got := ResMII(g, m); got != 3 {
		t.Errorf("ResMII = %d, want ceil(5/2)=3 (memory units bind)", got)
	}
}

func TestResMIIIgnoresCopies(t *testing.T) {
	m := machine.NewBusedGP(1, 1, 1)
	m.Buses = 0
	g := ddg.NewGraph(5, 0)
	for i := 0; i < 4; i++ {
		g.AddNode(ddg.OpALU, "")
	}
	g.AddNode(ddg.OpCopy, "")
	if got := ResMII(g, m); got != 1 {
		t.Errorf("ResMII = %d, want 1 (copies use no FU)", got)
	}
}

func TestRecMIIPaperExample(t *testing.T) {
	// Figure 6: B -> C -> D -> B with latencies 1 + 2 + 1 over distance 1.
	g := ddg.NewGraph(3, 3)
	b := g.AddNode(ddg.OpALU, "B")
	c := g.AddNode(ddg.OpLoad, "C")
	d := g.AddNode(ddg.OpALU, "D")
	g.AddEdge(b, c, 0)
	g.AddEdge(c, d, 0)
	g.AddEdge(d, b, 1)
	if got := RecMII(g, lat); got != 4 {
		t.Errorf("RecMII = %d, want 4 (paper Section 3)", got)
	}
}

func TestRecMIIAcyclic(t *testing.T) {
	g := ddg.NewGraph(3, 2)
	a := g.AddNode(ddg.OpFDiv, "")
	b := g.AddNode(ddg.OpFDiv, "")
	g.AddEdge(a, b, 0)
	if got := RecMII(g, lat); got != 1 {
		t.Errorf("RecMII = %d, want 1 for acyclic graphs", got)
	}
}

func TestRecMIIDistanceTwo(t *testing.T) {
	// Cycle latency 6 over distance 2: RecMII = 3.
	g := ddg.NewGraph(2, 2)
	a := g.AddNode(ddg.OpFMul, "") // 3
	b := g.AddNode(ddg.OpFMul, "") // 3
	g.AddEdge(a, b, 0)
	g.AddEdge(b, a, 2)
	if got := RecMII(g, lat); got != 3 {
		t.Errorf("RecMII = %d, want ceil(6/2)=3", got)
	}
}

func TestRecMIISelfLoop(t *testing.T) {
	g := ddg.NewGraph(1, 1)
	a := g.AddNode(ddg.OpFDiv, "") // latency 9
	g.AddEdge(a, a, 1)
	if got := RecMII(g, lat); got != 9 {
		t.Errorf("RecMII = %d, want 9", got)
	}
}

func TestRecMIITakesWorstCycle(t *testing.T) {
	g := ddg.NewGraph(4, 4)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpALU, "")
	c := g.AddNode(ddg.OpFDiv, "")
	d := g.AddNode(ddg.OpFDiv, "")
	// Cycle 1: a<->b, latency 2/1.
	g.AddEdge(a, b, 0)
	g.AddEdge(b, a, 1)
	// Cycle 2: c<->d, latency 18 over distance 3: 6.
	g.AddEdge(c, d, 0)
	g.AddEdge(d, c, 3)
	if got := RecMII(g, lat); got != 6 {
		t.Errorf("RecMII = %d, want 6", got)
	}
}

// bruteRecMII enumerates all simple cycles by DFS (fine for tiny
// graphs) and returns max ceil(lat/dist).
func bruteRecMII(g *ddg.Graph, lat ddg.LatencyFunc) int {
	best := 1
	n := g.NumNodes()
	var dfs func(start, v, latSum, distSum int, visited []bool)
	dfs = func(start, v, latSum, distSum int, visited []bool) {
		for _, e := range g.OutEdges(v) {
			nl := latSum + lat(g.Nodes[v].Kind)
			nd := distSum + e.Distance
			if e.To == start {
				if nd > 0 {
					if ii := (nl + nd - 1) / nd; ii > best {
						best = ii
					}
				}
				continue
			}
			if e.To > start && !visited[e.To] {
				visited[e.To] = true
				dfs(start, e.To, nl, nd, visited)
				visited[e.To] = false
			}
		}
	}
	for s := 0; s < n; s++ {
		visited := make([]bool, n)
		visited[s] = true
		dfs(s, s, 0, 0, visited)
	}
	return best
}

// TestRecMIIMatchesBruteForce cross-checks the binary-search RecMII
// against explicit cycle enumeration on random small graphs that have
// no zero-distance cycles.
func TestRecMIIMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		g := ddg.NewGraph(n, n*2)
		kinds := []ddg.OpKind{ddg.OpALU, ddg.OpLoad, ddg.OpFMul, ddg.OpFDiv}
		for i := 0; i < n; i++ {
			g.AddNode(kinds[rng.Intn(len(kinds))], "")
		}
		for e := 0; e < n+rng.Intn(n); e++ {
			from, to := rng.Intn(n), rng.Intn(n)
			dist := 0
			if to <= from {
				dist = 1 + rng.Intn(2) // keep zero-distance subgraph acyclic
			}
			g.AddEdge(from, to, dist)
		}
		got := RecMII(g, lat)
		want := bruteRecMII(g, lat)
		if got != want {
			t.Logf("seed %d: RecMII=%d brute=%d\n%s", seed, got, want, g)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMIIIsMaxOfBounds(t *testing.T) {
	m := machine.NewBusedGP(1, 1, 1)
	m.Buses = 0 // single cluster, width 4
	g := ddg.NewGraph(6, 3)
	for i := 0; i < 6; i++ {
		g.AddNode(ddg.OpALU, "")
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 0, 1) // RecMII 2
	// ResMII = ceil(6/4) = 2; equal here. Add more nodes to tip ResMII.
	if got := MII(g, m); got != 2 {
		t.Errorf("MII = %d, want 2", got)
	}
	for i := 0; i < 6; i++ {
		g.AddNode(ddg.OpALU, "")
	}
	if got := MII(g, m); got != 3 {
		t.Errorf("MII = %d, want 3 (ResMII now binds)", got)
	}
}

func TestSCCRecMII(t *testing.T) {
	g := ddg.NewGraph(5, 6)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpLoad, "")
	c := g.AddNode(ddg.OpFDiv, "")
	d := g.AddNode(ddg.OpFDiv, "")
	e := g.AddNode(ddg.OpALU, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, a, 1) // SCC 1: lat 3
	g.AddEdge(c, d, 0)
	g.AddEdge(d, c, 1) // SCC 2: lat 18
	g.AddEdge(b, c, 0)
	g.AddEdge(d, e, 0)

	comps := g.NonTrivialSCCs()
	if len(comps) != 2 {
		t.Fatalf("want 2 SCCs, got %d", len(comps))
	}
	var rs RecScratch
	recs, ok := rs.SCCRecMIIs(g, lat, nil)
	if !ok || len(recs) != 2 {
		t.Fatalf("SCCRecMIIs = %v, %v; want two bounds", recs, ok)
	}
	for i, comp := range comps {
		want := 3
		if comp.Nodes[0] == c {
			want = 18
		}
		if recs[i] != want {
			t.Errorf("SCC %v: RecMII %d, want %d", comp.Nodes, recs[i], want)
		}
	}
}

func TestResMIINonPipelined(t *testing.T) {
	m := machine.NewUnifiedGP(4)
	m.NonPipelined[ddg.OpFDiv] = true
	g := ddg.NewGraph(3, 0)
	g.AddNode(ddg.OpFDiv, "")
	g.AddNode(ddg.OpALU, "")
	g.AddNode(ddg.OpALU, "")
	// Demand: 9 (divide) + 2 = 11 slot-cycles on 4 units -> ceil = 3,
	// but the single non-pipelined divide alone forces II >= 9.
	if got := ResMII(g, m); got != 9 {
		t.Errorf("ResMII = %d, want 9 (non-pipelined divide)", got)
	}
	// Two divides on 4 units: demand 18+? -> per-unit one divide each;
	// the bound stays the occupancy (units are parallel).
	g.AddNode(ddg.OpFDiv, "")
	if got := ResMII(g, m); got != 9 {
		t.Errorf("ResMII = %d, want 9", got)
	}
	// Five divides on 4 units: ceil(45+2 / 4) = 12.
	for i := 0; i < 3; i++ {
		g.AddNode(ddg.OpFDiv, "")
	}
	if got := ResMII(g, m); got != 12 {
		t.Errorf("ResMII = %d, want 12", got)
	}
}
