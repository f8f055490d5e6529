// Package ddg implements the data-dependence graph (DDG) that drives
// cluster assignment and modulo scheduling.
//
// A DDG node is one loop operation; a DDG edge (From, To, Distance)
// states that the value produced by From in iteration i is consumed by
// To in iteration i+Distance. Distance 0 is an intra-iteration flow
// dependence; Distance >= 1 is a loop-carried dependence (a recurrence
// when it closes a cycle).
package ddg

import (
	"fmt"
	"sort"
	"sync/atomic"

	"clustersched/internal/diag"
)

// OpKind classifies an operation. The latency of each kind is a machine
// property (see package machine); the kind also selects which function
// unit class may execute the operation on a fully specialized machine.
type OpKind int

// Operation kinds, following Table 2 of the paper.
const (
	OpALU OpKind = iota
	OpShift
	OpBranch
	OpLoad
	OpStore
	OpFAdd
	OpFMul
	OpFDiv
	OpFSqrt
	OpCopy // explicit inter-cluster move, inserted by cluster assignment
	numOpKinds
)

// NumOpKinds is the number of distinct operation kinds.
const NumOpKinds = int(numOpKinds)

var opKindNames = [...]string{
	OpALU:    "alu",
	OpShift:  "shift",
	OpBranch: "branch",
	OpLoad:   "load",
	OpStore:  "store",
	OpFAdd:   "fadd",
	OpFMul:   "fmul",
	OpFDiv:   "fdiv",
	OpFSqrt:  "fsqrt",
	OpCopy:   "copy",
}

// String returns the lower-case mnemonic of the kind.
func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opKindNames) {
		return fmt.Sprintf("opkind(%d)", int(k))
	}
	return opKindNames[k]
}

// ParseOpKind converts a mnemonic produced by OpKind.String back into an
// OpKind. It reports false for unknown mnemonics.
func ParseOpKind(s string) (OpKind, bool) {
	for k, name := range opKindNames {
		if name == s {
			return OpKind(k), true
		}
	}
	return 0, false
}

// Node is one operation of the loop body.
type Node struct {
	ID   int    // dense index into Graph.Nodes
	Kind OpKind // operation class
	Name string // optional human-readable label
}

// Edge is a data dependence between two operations.
type Edge struct {
	From     int // producing node ID
	To       int // consuming node ID
	Distance int // iteration distance (>= 0)
}

// Graph is a data-dependence graph. The zero value is an empty graph
// ready for use; add operations with AddNode and AddEdge.
type Graph struct {
	Nodes []*Node
	Edges []Edge

	// adj caches the materialized per-node edge and neighbor lists the
	// accessors below hand out. Built lazily on first query, discarded
	// by AddNode/AddEdge. An atomic pointer because a read-only graph
	// may be queried from several goroutines at once; racing builders
	// compute identical caches and the losing store is merely wasted
	// work.
	adj atomic.Pointer[adjacency]

	// scc caches the non-trivial SCCs under the same contract as
	// adj: lazy, invalidated by mutation, safe to rebuild racily.
	scc atomic.Pointer[[]*SCC]

	// nodeArena chunk-allocates the Node values Nodes points into, so
	// building a graph does not pay one allocation per operation. A
	// chunk is abandoned (not copied) when full, which keeps previously
	// returned *Node pointers valid.
	nodeArena []Node
}

// adjacency is the CSR form of the edge list: every per-node list the
// accessors hand out is a capped run of a pointer-free slab. edges
// holds each node's out-edges in insertion order, then each node's
// in-edges: node id's out-run is edges[eoff[id]:eoff[id+1]] and its
// in-run edges[eoff[n+id]:eoff[n+id+1]]. The distinct-neighbor lists
// are a second CSR built on first use, since the graphs cluster
// assignment annotates for the scheduler are only walked by edge.
type adjacency struct {
	n     int
	eoff  []int32
	edges []Edge
	nb    atomic.Pointer[neighbors]
}

// neighbors holds each node's sorted distinct successors, then its
// predecessors, in nbrs, indexed by noff the way eoff indexes edges.
type neighbors struct {
	noff []int32
	nbrs []int
}

// adjacencyCache returns the cache, building it on first use.
func (g *Graph) adjacencyCache() *adjacency {
	if a := g.adj.Load(); a != nil {
		return a
	}
	n := len(g.Nodes)
	ne := len(g.Edges)
	a := &adjacency{
		n:     n,
		eoff:  make([]int32, 2*n+1),
		edges: make([]Edge, 2*ne),
	}

	// Counting sort of the edge list into per-node out- and in-runs
	// (run id and run n+id), preserving insertion order within each
	// node. After the prefix sum eoff[k] is the start of run k; the
	// placement advances it as run k's cursor, leaving the end of run k
	// there, and shifting by one slot restores the starts.
	eoff := a.eoff
	for _, e := range g.Edges {
		eoff[e.From+1]++
		eoff[n+e.To+1]++
	}
	for k := 1; k < 2*n; k++ {
		eoff[k] += eoff[k-1]
	}
	for _, e := range g.Edges {
		a.edges[eoff[e.From]] = e
		eoff[e.From]++
		a.edges[eoff[n+e.To]] = e
		eoff[n+e.To]++
	}
	copy(eoff[1:], eoff[:2*n])
	eoff[0] = 0
	g.adj.Store(a)
	return a
}

// neighbors returns the distinct-neighbor lists, building them on
// first use under the same racy-but-identical contract as the cache.
func (a *adjacency) neighbors() *neighbors {
	if nb := a.nb.Load(); nb != nil {
		return nb
	}
	n := a.n
	// One int32 slab: the neighbor offsets and the dedup stamps, which
	// are scratch.
	offs := make([]int32, 3*n+1)
	nb := &neighbors{noff: offs[: 2*n+1 : 2*n+1], nbrs: make([]int, len(a.edges))}
	seen := offs[2*n+1:]

	// Distinct sorted neighbors via stamps: seen[v] == id+1 marks v as
	// a recorded successor of id, -(id+1) as a recorded predecessor.
	noff, eoff := nb.noff, a.eoff
	k := 0
	for id := 0; id < n; id++ {
		noff[id] = int32(k)
		for _, e := range a.edges[eoff[id]:eoff[id+1]] {
			if seen[e.To] != int32(id+1) {
				seen[e.To] = int32(id + 1)
				nb.nbrs[k] = e.To
				k++
			}
		}
		sort.Ints(nb.nbrs[noff[id]:k])
	}
	for id := 0; id < n; id++ {
		noff[n+id] = int32(k)
		for _, e := range a.edges[eoff[n+id]:eoff[n+id+1]] {
			if seen[e.From] != -int32(id+1) {
				seen[e.From] = -int32(id + 1)
				nb.nbrs[k] = e.From
				k++
			}
		}
		sort.Ints(nb.nbrs[noff[n+id]:k])
	}
	noff[2*n] = int32(k)
	a.nb.Store(nb)
	return nb
}

// run returns the capped run [off[k], off[k+1]) of a CSR slab.
func run[T any](slab []T, off []int32, k int) []T {
	lo, hi := off[k], off[k+1]
	return slab[lo:hi:hi]
}

func (a *adjacency) out(id int) []Edge { return run(a.edges, a.eoff, id) }
func (a *adjacency) in(id int) []Edge  { return run(a.edges, a.eoff, a.n+id) }
func (a *adjacency) succs(id int) []int {
	nb := a.neighbors()
	return run(nb.nbrs, nb.noff, id)
}
func (a *adjacency) preds(id int) []int {
	nb := a.neighbors()
	return run(nb.nbrs, nb.noff, a.n+id)
}

// NewGraph returns an empty graph with capacity hints.
func NewGraph(nodeHint, edgeHint int) *Graph {
	return &Graph{
		Nodes:     make([]*Node, 0, nodeHint),
		Edges:     make([]Edge, 0, edgeHint),
		nodeArena: make([]Node, 0, nodeHint),
	}
}

// AddNode appends an operation of the given kind and returns its ID.
func (g *Graph) AddNode(kind OpKind, name string) int {
	id := len(g.Nodes)
	if len(g.nodeArena) == cap(g.nodeArena) {
		c := 2 * cap(g.nodeArena)
		if c < 16 {
			c = 16
		}
		g.nodeArena = make([]Node, 0, c)
	}
	g.nodeArena = append(g.nodeArena, Node{ID: id, Kind: kind, Name: name})
	g.Nodes = append(g.Nodes, &g.nodeArena[len(g.nodeArena)-1])
	g.invalidate()
	return id
}

// AddEdge records a dependence from -> to with the given iteration
// distance. It panics on out-of-range IDs or negative distance, which
// are programming errors, not runtime conditions.
func (g *Graph) AddEdge(from, to, distance int) {
	if from < 0 || from >= len(g.Nodes) || to < 0 || to >= len(g.Nodes) {
		panic(fmt.Sprintf("ddg: edge (%d,%d) references missing node (have %d nodes)", from, to, len(g.Nodes)))
	}
	if distance < 0 {
		panic(fmt.Sprintf("ddg: edge (%d,%d) has negative distance %d", from, to, distance))
	}
	g.Edges = append(g.Edges, Edge{From: from, To: to, Distance: distance})
	g.invalidate()
}

// invalidate drops the lazily built caches after a mutation. A graph
// under construction has none yet, so the atomic stores (and their
// write barriers) are skipped for every AddNode/AddEdge of a build.
func (g *Graph) invalidate() {
	if g.adj.Load() != nil {
		g.adj.Store(nil)
	}
	if g.scc.Load() != nil {
		g.scc.Store(nil)
	}
}

// NumNodes returns the number of operations.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the number of dependences.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// OutEdges returns the dependences produced by node id.
// The returned slice is owned by the graph; callers must not modify it.
func (g *Graph) OutEdges(id int) []Edge {
	return g.adjacencyCache().out(id)
}

// InEdges returns the dependences consumed by node id.
// The returned slice is owned by the graph; callers must not modify it.
func (g *Graph) InEdges(id int) []Edge {
	return g.adjacencyCache().in(id)
}

// Successors returns the distinct successor node IDs of id, sorted.
// The returned slice is owned by the graph; callers must not modify it.
func (g *Graph) Successors(id int) []int {
	return g.adjacencyCache().succs(id)
}

// Predecessors returns the distinct predecessor node IDs of id, sorted.
// The returned slice is owned by the graph; callers must not modify it.
func (g *Graph) Predecessors(id int) []int {
	return g.adjacencyCache().preds(id)
}

// Structural diagnostic codes reported by Lint. Package lint layers
// additional DDG-prefixed advisory codes on top of these.
const (
	CodeBadNode      = "DDG001" // nil node record or mismatched ID
	CodeBadKind      = "DDG002" // operation kind out of range
	CodeDanglingEdge = "DDG003" // edge endpoint references a missing node
	CodeNegativeDist = "DDG004" // edge with negative iteration distance
	CodeZeroSelfEdge = "DDG005" // self-edge with distance 0
	CodeZeroCycle    = "DDG006" // zero-distance dependence cycle
)

// Lint checks every structural invariant and returns all violations as
// diagnostics, not just the first. It trusts nothing about the graph:
// adjacency is rebuilt from the Edges slice, so graphs assembled by
// struct literal (bypassing AddNode/AddEdge) are checked correctly,
// and the cycle search runs only over edges whose endpoints exist.
func (g *Graph) Lint() []diag.Diagnostic {
	var r diag.Reporter
	for i, n := range g.Nodes {
		if n == nil {
			r.Errorf(CodeBadNode, fmt.Sprintf("node %d", i), "node %d is nil", i)
			continue
		}
		if n.ID != i {
			r.Errorf(CodeBadNode, fmt.Sprintf("node %d", i), "node %d has mismatched ID %d", i, n.ID)
		}
		if n.Kind < 0 || int(n.Kind) >= NumOpKinds {
			r.Errorf(CodeBadKind, fmt.Sprintf("node %d", i), "node %d has invalid kind %d", i, int(n.Kind))
		}
	}
	for i, e := range g.Edges {
		// Lint runs on the hot scheduling path; format the subject only
		// for edges that actually have findings.
		subject := func() string { return fmt.Sprintf("edge %d", i) }
		if e.From < 0 || e.From >= len(g.Nodes) {
			r.Errorf(CodeDanglingEdge, subject(), "edge %d has invalid source %d (have %d nodes)", i, e.From, len(g.Nodes))
		}
		if e.To < 0 || e.To >= len(g.Nodes) {
			r.Errorf(CodeDanglingEdge, subject(), "edge %d has invalid sink %d (have %d nodes)", i, e.To, len(g.Nodes))
		}
		if e.Distance < 0 {
			r.Errorf(CodeNegativeDist, subject(), "edge %d has negative distance %d", i, e.Distance)
		}
		if e.From == e.To && e.From >= 0 && e.From < len(g.Nodes) && e.Distance == 0 {
			r.Errorf(CodeZeroSelfEdge, subject(),
				"edge %d is a self-dependence of node %d at distance 0 (an operation cannot precede itself within one iteration)",
				i, e.From)
		}
	}
	// A zero-distance cycle is not schedulable at any II: every op in the
	// cycle would have to precede itself within one iteration. (A
	// distance-0 self-edge is the one-node case, reported above with its
	// own code and excluded here.)
	if cyc := g.zeroDistanceCycle(); cyc != nil && len(cyc) > 1 {
		r.Report(diag.Diagnostic{
			Code:     CodeZeroCycle,
			Severity: diag.Error,
			Subject:  fmt.Sprintf("nodes %v", cyc),
			Message:  fmt.Sprintf("zero-distance dependence cycle through nodes %v", cyc),
			Fix:      "give at least one edge of the cycle a positive iteration distance, or break the recurrence",
		})
	}
	return r.Diagnostics()
}

// Validate checks structural invariants. It returns nil for a
// well-formed graph, or a *diag.List carrying every violation (not
// just the first), whose Error string leads with the first one.
func (g *Graph) Validate() error {
	diags := g.Lint()
	if err := diag.AsError(diags); err != nil {
		return fmt.Errorf("ddg: %w", err)
	}
	return nil
}

// zeroDistanceCycle returns the node IDs of some cycle consisting only
// of distance-0 edges, or nil if none exists. Edges with out-of-range
// endpoints are skipped, so it is safe on graphs Lint has found other
// problems in. The depth-first search runs iteratively over a
// counting-sorted run of each node's valid distance-0 edges, in
// insertion order, so a long chain cannot grow the goroutine stack; it
// visits nodes in the order of the recursive search and names the same
// cycle: the back edge's target, then the search path back to it.
func (g *Graph) zeroDistanceCycle() []int {
	n := len(g.Nodes)
	zero := func(e Edge) bool {
		return e.Distance == 0 && e.From >= 0 && e.From < n && e.To >= 0 && e.To < n
	}
	m := 0
	for _, e := range g.Edges {
		if zero(e) {
			m++
		}
	}
	if m == 0 {
		return nil
	}
	// One slab: per-node run offsets, the runs' targets, the node
	// colors, and the search stack of (node, next run position) frames.
	// A loop-sized graph's slab lives on the stack, so linting a clean
	// graph allocates nothing.
	var small [256]int32
	var slab []int32
	if size := 4*n + 1 + m; size <= len(small) {
		slab = small[:size]
	} else {
		slab = make([]int32, size)
	}
	off, to := slab[:n+1], slab[n+1:n+1+m]
	color := slab[n+1+m : 2*n+1+m]
	stack := slab[2*n+1+m : 2*n+1+m : 4*n+1+m]
	for _, e := range g.Edges {
		if zero(e) {
			off[e.From+1]++
		}
	}
	for u := 1; u < n; u++ {
		off[u] += off[u-1]
	}
	for _, e := range g.Edges {
		if zero(e) {
			to[off[e.From]] = int32(e.To)
			off[e.From]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0

	const (
		white = 0
		gray  = 1 // on the search path
		black = 2
	)
	for root := 0; root < n; root++ {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack, int32(root), off[root])
		for len(stack) > 0 {
			top := len(stack) - 2
			u, p := stack[top], stack[top+1]
			if p == off[u+1] {
				color[u] = black
				stack = stack[:top]
				continue
			}
			stack[top+1]++
			switch v := to[p]; color[v] {
			case white:
				color[v] = gray
				stack = append(stack, v, off[v])
			case gray:
				cycle := []int{int(v)}
				for k := top; stack[k] != v; k -= 2 {
					cycle = append(cycle, int(stack[k]))
				}
				return cycle
			}
		}
	}
	return nil
}

// KindCounts returns how many nodes of each kind the graph contains.
func (g *Graph) KindCounts() [NumOpKinds]int {
	var counts [NumOpKinds]int
	for _, n := range g.Nodes {
		counts[n.Kind]++
	}
	return counts
}

// String renders a compact multi-line description, useful in tests and
// the schedview tool.
func (g *Graph) String() string {
	s := fmt.Sprintf("ddg: %d nodes, %d edges\n", len(g.Nodes), len(g.Edges))
	for _, n := range g.Nodes {
		s += fmt.Sprintf("  n%d %s", n.ID, n.Kind)
		if n.Name != "" {
			s += " (" + n.Name + ")"
		}
		s += "\n"
	}
	for _, e := range g.Edges {
		s += fmt.Sprintf("  n%d -> n%d dist=%d\n", e.From, e.To, e.Distance)
	}
	return s
}
