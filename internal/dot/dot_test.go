package dot

import (
	"strings"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/machine"
	"clustersched/internal/sched"
)

func sample() *ddg.Graph {
	g := ddg.NewGraph(3, 2)
	a := g.AddNode(ddg.OpLoad, "x")
	b := g.AddNode(ddg.OpALU, "")
	c := g.AddNode(ddg.OpStore, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	g.AddEdge(b, b, 1)
	return g
}

// TestGraphRendersAllNodesAndEdges renders a bare graph, with no
// assignment or schedule: every node lands in cluster 0 and every edge
// is drawn.
func TestGraphRendersAllNodesAndEdges(t *testing.T) {
	out := Render(sched.Input{Graph: sample()}, nil)
	for _, want := range []string{"digraph schedule", "cluster_0", "n0", "n1", "n2", "load x", "n0 -> n1", "style=dashed"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "->") != 3 {
		t.Errorf("want 3 edges:\n%s", out)
	}
}

func TestRenderGroupsByCluster(t *testing.T) {
	g := sample()
	m := machine.NewBusedGP(2, 2, 1)
	res, ok := assign.Run(g, m, 2, assign.Options{Variant: assign.HeuristicIterative})
	if !ok {
		t.Fatal("assignment failed")
	}
	in := sched.Input{
		Graph:       res.Graph,
		Machine:     m,
		ClusterOf:   res.ClusterOf,
		CopyTargets: res.CopyTargets,
		II:          2,
	}
	s, ok := sched.IMS(in)
	if !ok {
		t.Fatal("unschedulable")
	}
	out := Render(in, s)
	for _, want := range []string{"digraph schedule", "subgraph cluster_0", "@"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}

func TestRenderWithoutSchedule(t *testing.T) {
	g := sample()
	in := sched.Input{Graph: g, Machine: machine.NewUnifiedGP(4), II: 1}
	out := Render(in, nil)
	if strings.Contains(out, "@") {
		t.Errorf("unscheduled render should not show cycles:\n%s", out)
	}
	if !strings.Contains(out, "subgraph cluster_0") {
		t.Errorf("missing cluster subgraph:\n%s", out)
	}
}

func TestRenderMarksCopiesAsEllipses(t *testing.T) {
	g := ddg.NewGraph(3, 2)
	a := g.AddNode(ddg.OpALU, "")
	k := g.AddNode(ddg.OpCopy, "")
	b := g.AddNode(ddg.OpALU, "")
	g.AddEdge(a, k, 0)
	g.AddEdge(k, b, 0)
	m := machine.NewBusedGP(2, 2, 1)
	in := sched.Input{
		Graph:       g,
		Machine:     m,
		ClusterOf:   []int{0, 0, 1},
		CopyTargets: [][]int{nil, {1}, nil},
		II:          1,
	}
	out := Render(in, nil)
	if !strings.Contains(out, "shape=ellipse") {
		t.Errorf("copy not drawn as ellipse:\n%s", out)
	}
}
