package sim

import (
	"fmt"
	"sort"

	"clustersched/internal/ddg"
	"clustersched/internal/sched"
)

// This file is the value-differential oracle: instead of propagating
// (node, iteration) tags, it propagates concrete 64-bit values through
// the register files and compares the pipelined execution against a
// straightforward non-pipelined evaluation of the dependence graph.
// Every operation computes a collision-resistant mix of its operand
// values, so any routing error — wrong operand, wrong iteration, a
// value read from the wrong register — changes the downstream values
// with overwhelming probability. Memory is symbolic, exactly as in
// the tag oracle: each load site draws a per-iteration value stream
// and stores are ordering-only, so the comparison exercises register
// dataflow, copy routing, and MVE rotation, not an array model.
//
// Two properties make naive and pipelined executions comparable:
//
//   - Copies are transparent: a copy's value is its operand's value,
//     so a consumer rerouted through an inserted copy chain computes
//     exactly what it computed in the original graph.
//   - Operand values fold commutatively, so the mix is independent of
//     in-edge order (copy insertion may reorder a consumer's edges).

// mixSeed starts a node's hash from its identity and kind, and
// mixStep folds one 64-bit quantity in (FNV-1a with an avalanche
// finisher, so single-bit differences spread).
func mixSeed(node int, kind ddg.OpKind) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	h = mixStep(h, uint64(node)+1)
	return mixStep(h, uint64(kind)+0x9e3779b97f4a7c15)
}

func mixStep(h, x uint64) uint64 {
	h ^= x
	h *= 1099511628211 // FNV prime
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// nodeValue computes node v's value at iteration it given its folded
// operand sum (see valueOf for the fold). Leaf operations (no
// producing operands) vary by iteration — a load reads a different
// element each time around.
func nodeValue(v int, kind ddg.OpKind, it int, operands uint64, leaf bool) uint64 {
	h := mixSeed(v, kind)
	if leaf {
		return mixStep(h, uint64(int64(it))+0x5bf03635)
	}
	return mixStep(h, operands)
}

// preloadValue is the value a consumer observes for an operand whose
// producing iteration predates the loop (srcIter < 0): a constant of
// the producer's identity and the negative iteration. Copies are
// resolved transparently so an annotated graph's preloads agree with
// the original graph's.
func preloadValue(g *ddg.Graph, v, it int) uint64 {
	for g.Nodes[v].Kind == ddg.OpCopy {
		src, dist, ok := copySource(g, v)
		if !ok {
			break
		}
		v, it = src, it-dist
	}
	return mixStep(mixSeed(v, g.Nodes[v].Kind), uint64(int64(it)))
}

// copySource finds a copy node's producing operand and edge distance.
func copySource(g *ddg.Graph, c int) (src, dist int, ok bool) {
	for _, e := range g.InEdges(c) {
		if producesValue(g, e.From) {
			return e.From, e.Distance, true
		}
	}
	return 0, 0, false
}

func producesValue(g *ddg.Graph, n int) bool {
	k := g.Nodes[n].Kind
	return k != ddg.OpStore && k != ddg.OpBranch
}

// NaiveValues executes iters iterations of g non-pipelined, in plain
// dependence order, and returns vals[it][node] for every node (zero
// for stores and branches, which produce no value). It is the
// reference side of the differential: what the loop means, independent
// of any schedule, cluster assignment, or register binding. Copies
// (in an annotated graph) are transparent, so NaiveValues of an
// annotated graph agrees with NaiveValues of the original graph on
// the original nodes.
//
//schedvet:test-api the sequential reference the pipelined-execution tests compare against
func NaiveValues(g *ddg.Graph, iters int) [][]uint64 {
	n := g.NumNodes()
	vals := make([][]uint64, iters)
	for it := range vals {
		vals[it] = make([]uint64, n)
	}
	// state memoizes the current iteration's sweep (0 new, 1 visiting,
	// 2 done); earlier iterations are fully evaluated by the time a
	// loop-carried edge reaches back to them, so their values are read
	// straight out of vals.
	state := make([]uint8, n)
	cur := 0
	var eval func(v, it int) uint64
	eval = func(v, it int) uint64 {
		if it < 0 {
			return preloadValue(g, v, it)
		}
		if it < cur {
			return vals[it][v]
		}
		if state[v] == 2 {
			return vals[it][v]
		}
		if state[v] == 1 {
			// A zero-distance cycle would be an invalid graph
			// (ddg.Validate rejects them); defend anyway.
			return mixSeed(v, g.Nodes[v].Kind)
		}
		state[v] = 1
		var out uint64
		if !producesValue(g, v) {
			out = 0
		} else if g.Nodes[v].Kind == ddg.OpCopy {
			if src, dist, ok := copySource(g, v); ok {
				out = eval(src, it-dist)
			} else {
				out = mixSeed(v, ddg.OpCopy)
			}
		} else {
			var operands uint64
			leaf := true
			for _, e := range g.InEdges(v) {
				if !producesValue(g, e.From) {
					continue
				}
				leaf = false
				operands += eval(e.From, it-e.Distance)
			}
			out = nodeValue(v, g.Nodes[v].Kind, it, operands, leaf)
		}
		vals[it][v] = out
		state[v] = 2
		return out
	}
	for it := 0; it < iters; it++ {
		cur = it
		for i := range state {
			state[i] = 0
		}
		for v := 0; v < n; v++ {
			eval(v, it)
		}
	}
	return vals
}

// PipelinedValues executes iters overlapped iterations of the
// schedule under the register binding, computing every operation's
// value from the registers it actually reads at its issue cycle and
// writing results to the register files at completion, exactly like
// RunWithBinding but with values instead of tags. Copies move the
// value they read. The returned vals[it][node] compare against
// NaiveValues of the same graph: any difference on a producing node
// is a concrete semantic break of the pipelined execution.
//
//schedvet:test-api the pipelined execution the value-equivalence tests check against NaiveValues
func PipelinedValues(in sched.Input, s *sched.Schedule, iters int, binding Binding) ([][]uint64, error) {
	g := in.Graph
	lat := in.Machine.Latency

	clusterOf := func(n int) int {
		if in.ClusterOf == nil {
			return 0
		}
		return in.ClusterOf[n]
	}
	writeFiles := func(n int) []int {
		if g.Nodes[n].Kind == ddg.OpCopy && in.CopyTargets != nil {
			return in.CopyTargets[n]
		}
		return []int{clusterOf(n)}
	}

	type event struct {
		cycle int
		write bool
		node  int
		iter  int
	}
	var events []event
	for v := 0; v < g.NumNodes(); v++ {
		for it := 0; it < iters; it++ {
			issue := s.CycleOf[v] + it*s.II
			events = append(events, event{cycle: issue, node: v, iter: it})
			if producesValue(g, v) {
				events = append(events, event{cycle: issue + lat(g.Nodes[v].Kind), write: true, node: v, iter: it})
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].cycle != events[j].cycle {
			return events[i].cycle < events[j].cycle
		}
		return events[i].write && !events[j].write
	})

	regs := map[regKey]uint64{}
	vals := make([][]uint64, iters)
	for it := range vals {
		vals[it] = make([]uint64, g.NumNodes())
	}

	for _, ev := range events {
		v, it := ev.node, ev.iter
		if ev.write {
			for _, cl := range writeFiles(v) {
				r, ok := binding(v, cl, it)
				if !ok {
					return nil, fmt.Errorf("sim: node %d has no register binding in cluster %d (iteration %d)", v, cl, it)
				}
				regs[regKey{cluster: cl, register: r}] = vals[it][v]
			}
			continue
		}
		if !producesValue(g, v) {
			continue
		}
		// Issue: read the operands from this cluster's file and compute.
		cl := clusterOf(v)
		var operands, copied uint64
		leaf := true
		for _, e := range g.InEdges(v) {
			u := e.From
			if !producesValue(g, u) {
				continue
			}
			leaf = false
			srcIter := it - e.Distance
			var val uint64
			if srcIter < 0 {
				val = preloadValue(g, u, srcIter)
			} else {
				r, ok := binding(u, cl, srcIter)
				if !ok {
					return nil, fmt.Errorf("sim: cycle %d: node %d (cluster %d) reads value %d, which has no register in that file",
						ev.cycle, v, cl, u)
				}
				val = regs[regKey{cluster: cl, register: r}]
			}
			operands += val
			copied = val
		}
		if g.Nodes[v].Kind == ddg.OpCopy {
			vals[it][v] = copied
		} else {
			vals[it][v] = nodeValue(v, g.Nodes[v].Kind, it, operands, leaf)
		}
	}
	return vals, nil
}
