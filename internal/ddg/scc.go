package ddg

import (
	"math"
	"sort"
)

// SCC is a strongly connected component of the dependence graph.
// A component is "non-trivial" when it represents a recurrence: it has
// more than one node, or a single node with a self edge.
type SCC struct {
	Nodes []int // member node IDs, sorted ascending
	Self  bool  // single node with a self-dependence
}

// NonTrivial reports whether the component forms a recurrence cycle.
func (s *SCC) NonTrivial() bool { return len(s.Nodes) > 1 || s.Self }

// StronglyConnectedComponents returns all SCCs, computed with Tarjan's
// algorithm (iterative, so deep graphs cannot overflow the goroutine
// stack). Components are returned in reverse topological order of the
// condensation, which callers typically re-rank by criticality anyway.
// The decomposition is cached on the graph until the next mutation; the
// returned components are shared and must not be modified.
func (g *Graph) StronglyConnectedComponents() []*SCC {
	return g.sccs().all
}

func (g *Graph) sccs() *sccCache {
	if c := g.scc.Load(); c != nil {
		return c
	}
	c := &sccCache{all: g.computeSCCs()}
	for _, s := range c.all {
		if s.NonTrivial() {
			c.nonTrivial = append(c.nonTrivial, s)
		}
	}
	g.scc.Store(c)
	return c
}

// computeSCCs runs Tarjan's algorithm over one scratch slab (the DFS
// index and lowlink per node, the component stack and the work stack of
// (node, next out-edge) frames, reused across roots). Members are
// carved from one slab and components from one backing array.
func (g *Graph) computeSCCs() []*SCC {
	n := len(g.Nodes)
	if n == 0 {
		return nil
	}
	adj := g.adjacencyCache()
	scratch := make([]int, 5*n)
	index, low := scratch[:n], scratch[n:2*n]
	stack := scratch[2*n : 2*n : 3*n]
	work := scratch[3*n : 3*n] // (v, next out-edge index) pairs
	for i := range index {
		index[i] = -1
	}
	// done marks a node whose component has been emitted (off the
	// stack); it compares above every lowlink, so such a node never
	// lowers one.
	const done = math.MaxInt
	members := make([]int, 0, n)
	comps := make([]SCC, 0, n)
	counter := 0
	visit := func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		work = append(work, v, 0)
	}

	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		visit(root)
		for len(work) > 0 {
			top := len(work) - 2
			v, ei := work[top], work[top+1]
			if out := adj.out(v); ei < len(out) {
				work[top+1]++
				w := out[ei].To
				if index[w] == -1 {
					visit(w)
				} else if index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			work = work[:top]
			if top > 0 {
				if p := work[top-2]; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				j := len(stack) - 1
				for stack[j] != v {
					j--
				}
				lo := len(members)
				members = append(members, stack[j:]...)
				for _, w := range stack[j:] {
					index[w] = done
				}
				stack = stack[:j]
				comp := members[lo:len(members):len(members)]
				sort.Ints(comp)
				scc := SCC{Nodes: comp}
				if len(comp) == 1 {
					for _, e := range adj.out(comp[0]) {
						if e.To == comp[0] {
							scc.Self = true
							break
						}
					}
				}
				comps = append(comps, scc)
			}
		}
	}
	out := make([]*SCC, len(comps))
	for i := range comps {
		out[i] = &comps[i]
	}
	return out
}

// NonTrivialSCCs filters StronglyConnectedComponents down to the
// recurrences, which is what cluster assignment cares about. Like
// StronglyConnectedComponents, the result is cached and shared.
func (g *Graph) NonTrivialSCCs() []*SCC {
	return g.sccs().nonTrivial
}

// SCCIndex returns, for every node, the position of its component in
// the comps slice, or -1 when the node belongs to none of them.
func SCCIndex(numNodes int, comps []*SCC) []int {
	idx := make([]int, numNodes)
	for i := range idx {
		idx[i] = -1
	}
	for ci, c := range comps {
		for _, n := range c.Nodes {
			idx[n] = ci
		}
	}
	return idx
}
