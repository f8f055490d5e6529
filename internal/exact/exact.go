// Package exact computes provably optimal clustered initiation
// intervals for small loops by exhaustive search: every cluster
// assignment, every modulo-slot placement (pruned through the
// cycle-exact reservation table), with timing feasibility decided as a
// difference-constraint system. It exists to measure the heuristic
// pipeline's optimality gap — exponential in loop size, it is only
// meant for loops of roughly a dozen operations on small machines.
package exact

import (
	"fmt"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/machine"
	"clustersched/internal/mrt"
)

// MaxNodes bounds the input size; beyond it the search space is
// hopeless and Optimal returns an error rather than spinning.
const MaxNodes = 12

// Optimal returns the smallest II at which some cluster assignment and
// modulo schedule exists for g on broadcast machine m, searching II
// from 1 to maxII. It returns maxII+1 when no II in range works.
// Copies are inserted by assign.Materialize, the model the pipeline
// itself schedules.
//
//schedvet:test-api the exhaustive optimum the heuristic's tests measure against
func Optimal(g *ddg.Graph, m *machine.Config, maxII int) (int, error) {
	if g.NumNodes() > MaxNodes {
		return 0, fmt.Errorf("exact: %d nodes exceed the %d-node search bound", g.NumNodes(), MaxNodes)
	}
	if m.Network != machine.Broadcast {
		return 0, fmt.Errorf("exact: only broadcast machines are supported")
	}
	if err := g.Validate(); err != nil {
		return 0, err
	}
	n := g.NumNodes()
	k := m.NumClusters()
	for ii := 1; ii <= maxII; ii++ {
		clusterOf := make([]int, n)
		var enum func(v int) bool
		enum = func(v int) bool {
			if v == n {
				// A vector whose copies the machine cannot carry at
				// this II has no schedule either.
				res, ok := assign.Materialize(g, m, clusterOf, ii)
				return ok && schedulableAt(res.Graph, m, res.ClusterOf, res.CopyTargets, ii)
			}
			for c := 0; c < k; c++ {
				clusterOf[v] = c
				if enum(v + 1) {
					return true
				}
			}
			return false
		}
		if enum(0) {
			return ii, nil
		}
	}
	return maxII + 1, nil
}

// schedulableAt exhaustively searches modulo-slot placements with
// resource pruning; a complete slot vector is feasible when the
// residual difference-constraint system has a solution.
func schedulableAt(g *ddg.Graph, m *machine.Config, clusterOf []int, copyTargets [][]int, ii int) bool {
	n := g.NumNodes()
	table := mrt.NewCycle(m, ii)
	slots := make([]int, n)
	var dfs func(v int) bool
	dfs = func(v int) bool {
		if v == n {
			return slotsFeasible(g, m, ii, slots)
		}
		var op mrt.Op
		if g.Nodes[v].Kind == ddg.OpCopy {
			op = mrt.CopyAt(v, clusterOf[v], copyTargets[v])
		} else {
			op = mrt.OpAt(v, clusterOf[v], g.Nodes[v].Kind)
		}
		for s := 0; s < ii; s++ {
			if !table.CommitOp(op, s) {
				continue
			}
			slots[v] = s
			if dfs(v + 1) {
				return true
			}
			table.ReleaseOp(op)
		}
		return false
	}
	return dfs(0)
}

// slotsFeasible substitutes x_v = slot_v + ii*y_v: every dependence
// becomes a pure difference constraint on y, solvable iff Bellman-Ford
// converges (no positive cycle).
func slotsFeasible(g *ddg.Graph, m *machine.Config, ii int, slots []int) bool {
	n := g.NumNodes()
	y := make([]int, n)
	for round := 0; round <= n; round++ {
		changed := false
		for _, e := range g.Edges {
			c := m.Latency(g.Nodes[e.From].Kind) - ii*e.Distance - slots[e.To] + slots[e.From]
			need := y[e.From] + ceilDiv(c, ii)
			if need > y[e.To] {
				y[e.To] = need
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

func ceilDiv(a, b int) int {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}
