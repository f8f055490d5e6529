package ddg

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// chain returns a linear graph of n ALU nodes.
func chain(n int) *Graph {
	g := NewGraph(n, n)
	for i := 0; i < n; i++ {
		g.AddNode(OpALU, "")
		if i > 0 {
			g.AddEdge(i-1, i, 0)
		}
	}
	return g
}

func TestSCCChainHasOnlyTrivialComponents(t *testing.T) {
	g := chain(5)
	if nt := g.NonTrivialSCCs(); len(nt) != 0 {
		t.Errorf("NonTrivialSCCs = %v, want none", nt)
	}
}

func TestSCCSingleCycle(t *testing.T) {
	g := chain(4)
	g.AddEdge(3, 1, 1) // cycle {1,2,3}
	nt := g.NonTrivialSCCs()
	if len(nt) != 1 {
		t.Fatalf("got %d non-trivial SCCs, want 1", len(nt))
	}
	if want := []int{1, 2, 3}; !equalInts(nt[0].Nodes, want) {
		t.Errorf("SCC nodes = %v, want %v", nt[0].Nodes, want)
	}
}

func TestSCCSelfLoop(t *testing.T) {
	g := NewGraph(2, 2)
	a := g.AddNode(OpFAdd, "")
	g.AddNode(OpALU, "")
	g.AddEdge(a, a, 1)
	nt := g.NonTrivialSCCs()
	if len(nt) != 1 || len(nt[0].Nodes) != 1 || !nt[0].Self {
		t.Fatalf("self-loop not detected: %+v", nt)
	}
}

func TestSCCTwoSeparateCycles(t *testing.T) {
	g := NewGraph(6, 8)
	for i := 0; i < 6; i++ {
		g.AddNode(OpALU, "")
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 0, 1)
	g.AddEdge(3, 4, 0)
	g.AddEdge(4, 5, 0)
	g.AddEdge(5, 3, 2)
	g.AddEdge(1, 3, 0) // connection between the cycles, one direction only
	nt := g.NonTrivialSCCs()
	if len(nt) != 2 {
		t.Fatalf("got %d non-trivial SCCs, want 2", len(nt))
	}
	sizes := []int{len(nt[0].Nodes), len(nt[1].Nodes)}
	sort.Ints(sizes)
	if sizes[0] != 2 || sizes[1] != 3 {
		t.Errorf("SCC sizes = %v, want [2 3]", sizes)
	}
}

// TestSCCIndex maps every node to its non-trivial component: a back
// edge closes the tail of a chain into the only recurrence.
func TestSCCIndex(t *testing.T) {
	g := chain(4)
	g.AddEdge(3, 2, 1)
	idx := []int{-1, -1, -1, -1}
	for ci, c := range g.NonTrivialSCCs() {
		for _, n := range c.Nodes {
			idx[n] = ci
		}
	}
	if idx[0] != -1 || idx[1] != -1 {
		t.Errorf("nodes 0,1 should be outside SCCs: %v", idx)
	}
	if idx[2] != 0 || idx[3] != 0 {
		t.Errorf("nodes 2,3 should be in SCC 0: %v", idx)
	}
}

// reachable computes the transitive closure by DFS, the brute-force
// oracle for the SCC property test.
func reachable(g *Graph, from int) map[int]bool {
	seen := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Successors(v) {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// TestSCCMatchesBruteForce is a property test: for random graphs,
// Tarjan's non-trivial components must be exactly the equivalence
// classes of mutual reachability among the nodes that lie on a cycle.
func TestSCCMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := NewGraph(n, n*2)
		for i := 0; i < n; i++ {
			g.AddNode(OpALU, "")
		}
		for e := 0; e < n+rng.Intn(n*2); e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Intn(2))
		}

		// Every node appears at most once.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = -1
		}
		for ci, c := range g.NonTrivialSCCs() {
			for _, v := range c.Nodes {
				if idx[v] != -1 {
					t.Logf("node %d appears twice", v)
					return false
				}
				idx[v] = ci
			}
		}
		reach := make([]map[int]bool, n)
		for v := 0; v < n; v++ {
			reach[v] = reachable(g, v)
		}
		// A node is in a component iff it lies on a cycle, and two
		// nodes share one iff they are mutually reachable.
		onCycle := func(v int) bool {
			for _, s := range g.Successors(v) {
				if reach[s][v] {
					return true
				}
			}
			return false
		}
		for a := 0; a < n; a++ {
			if onCycle(a) != (idx[a] != -1) {
				t.Logf("node %d: on a cycle=%v, in a component=%v", a, onCycle(a), idx[a] != -1)
				return false
			}
			for b := 0; b < n; b++ {
				mutual := a == b || reach[a][b] && reach[b][a]
				same := idx[a] == idx[b] && (a == b || idx[a] != -1)
				if mutual != same {
					t.Logf("nodes %d,%d: mutual=%v same=%v", a, b, mutual, same)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSCCDeepGraph guards the iterative implementation against stack
// exhaustion on pathological depth.
func TestSCCDeepGraph(t *testing.T) {
	const n = 200000
	g := chain(n)
	g.AddEdge(n-1, 0, 1)
	nt := g.NonTrivialSCCs()
	if len(nt) != 1 || len(nt[0].Nodes) != n {
		t.Fatalf("deep cycle not found as one SCC")
	}
}

func equalInts(a, b []int) bool {
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
