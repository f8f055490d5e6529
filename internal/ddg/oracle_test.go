package ddg

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
)

// The oracles below are the implementations the CSR adjacency cache,
// the slab-allocated Tarjan pass and the iterative zero-distance-cycle
// search replaced: per-node slice headers, a per-component allocation
// and a recursive search. checkOracles requires the production code to
// agree with them exactly.

// oracleAdj is the adjacency as per-node slice headers over flat arrays.
type oracleAdj struct {
	out, in      [][]Edge
	succs, preds [][]int
}

func oracleAdjacency(g *Graph) *oracleAdj {
	n := len(g.Nodes)
	ne := len(g.Edges)
	a := &oracleAdj{
		out:   make([][]Edge, n),
		in:    make([][]Edge, n),
		succs: make([][]int, n),
		preds: make([][]int, n),
	}
	// Counting sort of the edge list into per-node out/in runs of two
	// flat arrays, preserving insertion order within each node.
	outOff := make([]int, n+1)
	inOff := make([]int, n+1)
	for _, e := range g.Edges {
		outOff[e.From+1]++
		inOff[e.To+1]++
	}
	for i := 0; i < n; i++ {
		outOff[i+1] += outOff[i]
		inOff[i+1] += inOff[i]
	}
	flatOut := make([]Edge, ne)
	flatIn := make([]Edge, ne)
	ocur := make([]int, 2*n)
	icur := ocur[n:]
	copy(ocur[:n], outOff[:n])
	copy(icur, inOff[:n])
	for _, e := range g.Edges {
		flatOut[ocur[e.From]] = e
		ocur[e.From]++
		flatIn[icur[e.To]] = e
		icur[e.To]++
	}
	// Distinct-neighbor dedup via stamps: seen[v] == id marks v as a
	// recorded successor of id, id+n as a recorded predecessor.
	succFlat := make([]int, 0, ne)
	predFlat := make([]int, 0, ne)
	seen := make([]int, n)
	for i := range seen {
		seen[i] = -1
	}
	for id := 0; id < n; id++ {
		a.out[id] = flatOut[outOff[id]:outOff[id+1]:outOff[id+1]]
		a.in[id] = flatIn[inOff[id]:inOff[id+1]:inOff[id+1]]

		ss := len(succFlat)
		for _, e := range a.out[id] {
			if seen[e.To] != id {
				seen[e.To] = id
				succFlat = append(succFlat, e.To)
			}
		}
		sort.Ints(succFlat[ss:])
		a.succs[id] = succFlat[ss:len(succFlat):len(succFlat)]

		ps := len(predFlat)
		for _, e := range a.in[id] {
			if seen[e.From] != id+n {
				seen[e.From] = id + n
				predFlat = append(predFlat, e.From)
			}
		}
		sort.Ints(predFlat[ps:])
		a.preds[id] = predFlat[ps:len(predFlat):len(predFlat)]
	}
	return a
}

// oracleSCCs is Tarjan's algorithm with one allocation per component.
func oracleSCCs(g *Graph) []*SCC {
	n := len(g.Nodes)
	adj := oracleAdjacency(g)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		stack   []int
		counter int
		out     []*SCC
	)
	type frame struct {
		v  int
		ei int // next out-edge index to examine
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		work := []frame{{v: root}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.ei < len(adj.out[v]) {
				e := adj.out[v][f.ei]
				f.ei++
				w := e.To
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				scc := &SCC{Nodes: comp}
				if len(comp) == 1 {
					for _, e := range adj.out[comp[0]] {
						if e.To == comp[0] {
							scc.Self = true
							break
						}
					}
				}
				out = append(out, scc)
			}
		}
	}
	return out
}

// oracleZeroDistanceCycle is the recursive depth-first search.
func oracleZeroDistanceCycle(g *Graph) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	succ := make([][]int, len(g.Nodes))
	for i, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			continue
		}
		succ[e.From] = append(succ[e.From], i)
	}
	color := make([]int, len(g.Nodes))
	parent := make([]int, len(g.Nodes))
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, ei := range succ[u] {
			e := g.Edges[ei]
			if e.Distance != 0 {
				continue
			}
			v := e.To
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				cycle = []int{v}
				for w := u; w != v && w != -1; w = parent[w] {
					cycle = append(cycle, w)
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for i := range g.Nodes {
		if color[i] == white && dfs(i) {
			return cycle
		}
	}
	return nil
}

// checkOracles compares g's cached accessors, SCCs, zero-distance
// cycle (the only part of Lint the search feeds) and start times with
// the oracles. The adjacency, SCC and start-time checks need every edge
// endpoint in range, as the accessors do.
func checkOracles(g *Graph) error {
	if got, want := g.zeroDistanceCycle(), oracleZeroDistanceCycle(g); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("zero-distance cycle %v, oracle %v", got, want)
	}
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			return nil
		}
	}
	adj := oracleAdjacency(g)
	for id := range g.Nodes {
		if err := sameRun("OutEdges", id, g.OutEdges(id), adj.out[id]); err != nil {
			return err
		}
		if err := sameRun("InEdges", id, g.InEdges(id), adj.in[id]); err != nil {
			return err
		}
		if err := sameRun("Successors", id, g.Successors(id), adj.succs[id]); err != nil {
			return err
		}
		if err := sameRun("Predecessors", id, g.Predecessors(id), adj.preds[id]); err != nil {
			return err
		}
	}
	var wantNT []*SCC
	for _, s := range oracleSCCs(g) {
		if s.NonTrivial() {
			wantNT = append(wantNT, s)
		}
	}
	if got := g.NonTrivialSCCs(); !reflect.DeepEqual(got, wantNT) {
		return fmt.Errorf("non-trivial SCCs %s, oracle %s", sccString(got), sccString(wantNT))
	}
	return checkStartOracles(g, new(StartScratch))
}

// sameRun reports whether an accessor's slice has the oracle's
// contents in the oracle's order and is capped (len == cap), so a
// caller's append cannot write into a neighbor's run.
func sameRun[T comparable](what string, id int, got, want []T) error {
	if len(got) != cap(got) {
		return fmt.Errorf("%s(%d) has len %d but cap %d", what, id, len(got), cap(got))
	}
	if got == nil || len(got) != len(want) {
		return fmt.Errorf("%s(%d) = %v, oracle %v", what, id, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s(%d) = %v, oracle %v", what, id, got, want)
		}
	}
	return nil
}

func sccString(cs []*SCC) string {
	s := "["
	for _, c := range cs {
		s += fmt.Sprintf("%v", *c)
	}
	return s + "]"
}

// literal assembles a graph by struct literal, bypassing AddNode and
// AddEdge, so edges may dangle or carry negative distances. The node
// kinds cycle through every kind, so the start-time oracles see
// varied latencies.
func literal(n int, edges ...Edge) *Graph {
	g := &Graph{Edges: edges}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, &Node{ID: i, Kind: OpKind(i % NumOpKinds)})
	}
	return g
}

func TestOraclesOnCornerCases(t *testing.T) {
	cases := map[string]*Graph{
		"empty":          NewGraph(0, 0),
		"empty-literal":  {},
		"isolated":       literal(1),
		"no-edges":       literal(4),
		"self-dist0":     literal(2, Edge{0, 0, 0}, Edge{0, 1, 0}),
		"self-dist1":     literal(2, Edge{1, 1, 1}, Edge{0, 1, 0}),
		"triple":         literal(3, Edge{0, 1, 0}, Edge{0, 1, 0}, Edge{1, 2, 0}, Edge{0, 1, 0}),
		"pair-distances": literal(2, Edge{0, 1, 0}, Edge{0, 1, 1}, Edge{0, 1, 2}, Edge{1, 0, 1}),
		"dangling":       literal(3, Edge{0, 1, 0}, Edge{1, 3, 0}, Edge{-1, 2, 0}, Edge{2, 0, 0}, Edge{1, 2, 0}),
		"negative":       literal(3, Edge{0, 1, -1}, Edge{1, 0, 0}, Edge{1, 2, 0}, Edge{2, 1, -2}),
		// The search must stop at the first back edge, a distance-0
		// self-edge, before reaching the two-node cycle behind it.
		"self-before-cycle": literal(3, Edge{0, 0, 0}, Edge{1, 2, 0}, Edge{2, 1, 0}),
		"nested-cycles": literal(5, Edge{0, 1, 0}, Edge{1, 2, 0}, Edge{2, 3, 0}, Edge{3, 1, 0},
			Edge{3, 4, 0}, Edge{4, 0, 0}, Edge{2, 0, 1}),
		"nil-node": {Nodes: []*Node{{ID: 0}, nil, {ID: 2}}, Edges: []Edge{{0, 2, 0}, {2, 0, 0}}},
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			if err := checkOracles(g); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzGraphOracles checks the oracles on graphs assembled from raw edge
// lists: the first byte sizes the graph, and each following triple is
// one edge whose endpoints may dangle and whose distance may be
// negative.
func FuzzGraphOracles(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 1, 2, 0, 2, 1, 0, 1, 1, 0})
	f.Add([]byte{3, 0, 0, 0, 1, 2, 0, 2, 1, 0})
	f.Add([]byte{5, 0, 1, 0, 0, 1, 0, 0, 1, 0, 3, 5, 2, 4, 4, 1})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 24)
		var edges []Edge
		for k := 1; k+2 < len(data); k += 3 {
			// Endpoints in [-1, n], distances in {0, 0, 0, 1, 2, -1}.
			edges = append(edges, Edge{
				From:     int(data[k])%(n+2) - 1,
				To:       int(data[k+1])%(n+2) - 1,
				Distance: [...]int{0, 0, 0, 1, 2, -1}[data[k+2]%6],
			})
		}
		if err := checkOracles(literal(n, edges...)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConcurrentCacheBuild queries a fresh graph's accessors and SCCs
// from several goroutines at once, so the racing cache builders run
// under the race detector, and compares every answer with a serial
// build on a copy.
func TestConcurrentCacheBuild(t *testing.T) {
	g := chain(40)
	for i := 0; i < 40; i += 3 {
		g.AddEdge(i, (i*7)%40, 1+i%3)
		g.AddEdge((i*5)%40, i, 0)
	}
	want := NewGraph(g.NumNodes(), g.NumEdges())
	for _, n := range g.Nodes {
		want.AddNode(n.Kind, n.Name)
	}
	for _, e := range g.Edges {
		want.AddEdge(e.From, e.To, e.Distance)
	}
	wantSCCs := want.NonTrivialSCCs()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < g.NumNodes(); k++ {
				id := (k + 5*w) % g.NumNodes()
				if !reflect.DeepEqual(g.OutEdges(id), want.OutEdges(id)) ||
					!reflect.DeepEqual(g.InEdges(id), want.InEdges(id)) ||
					!reflect.DeepEqual(g.Successors(id), want.Successors(id)) ||
					!reflect.DeepEqual(g.Predecessors(id), want.Predecessors(id)) {
					errs <- fmt.Errorf("worker %d: adjacency of node %d differs from the serial build", w, id)
					return
				}
			}
			if got := g.NonTrivialSCCs(); !reflect.DeepEqual(got, wantSCCs) {
				errs <- fmt.Errorf("worker %d: SCCs %s, serial %s", w, sccString(got), sccString(wantSCCs))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLintDeepZeroDistanceChain lints a million-node chain of
// distance-0 edges with the goroutine stack capped well below what a
// recursive search of that depth needs.
func TestLintDeepZeroDistanceChain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a million-node graph")
	}
	const n = 1 << 20
	g := chain(n)
	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	if diags := g.Lint(); len(diags) != 0 {
		t.Fatalf("clean chain: %v", diags[0])
	}
	g.AddEdge(n-1, n-2, 0)
	diags := g.Lint()
	if len(diags) != 1 || diags[0].Code != CodeZeroCycle || diags[0].Subject != fmt.Sprintf("nodes [%d %d]", n-2, n-1) {
		t.Fatalf("chain closed by a back edge: %v", diags)
	}
}
