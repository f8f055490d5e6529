package lint_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/diag"
	"clustersched/internal/lint"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
)

// oracleGraph is lint.Graph as a plain scan: the duplicate-edge map and
// the degree array are built on every call.
func oracleGraph(g *ddg.Graph) []diag.Diagnostic {
	diags := g.Lint()
	var r diag.Reporter
	count := make(map[ddg.Edge]int, len(g.Edges))
	for _, e := range g.Edges {
		count[e]++
	}
	for i, e := range g.Edges {
		if c := count[e]; c > 2 {
			count[e] = -1
			dups := make([]int, 0, c)
			for j, e2 := range g.Edges {
				if e2 == e {
					dups = append(dups, j)
				}
			}
			r.Report(diag.Diagnostic{
				Code: lint.CodeDuplicateEdge, Severity: diag.Warning,
				Subject: fmt.Sprintf("edge %d", i),
				Message: fmt.Sprintf("dependence n%d -> n%d dist=%d is recorded %d times (edges %v)",
					e.From, e.To, e.Distance, c, dups),
				Fix: "record a dependence once per operand use; drop the redundant edges",
			})
		}
	}
	if g.NumNodes() > 1 {
		degree := make([]int, g.NumNodes())
		for _, e := range g.Edges {
			if e.From >= 0 && e.From < g.NumNodes() {
				degree[e.From]++
			}
			if e.To >= 0 && e.To < g.NumNodes() {
				degree[e.To]++
			}
		}
		for i, n := range g.Nodes {
			if n == nil || degree[i] > 0 || n.Kind == ddg.OpBranch {
				continue
			}
			r.Report(diag.Diagnostic{
				Code: lint.CodeIsolatedNode, Severity: diag.Warning,
				Subject: fmt.Sprintf("node %d", i),
				Message: fmt.Sprintf("node %d (%s) has no dependences; it is unreachable from the rest of the loop", i, n.Kind),
				Fix:     "remove the operation or wire it into the dataflow",
			})
		}
	}
	for i, n := range g.Nodes {
		if n != nil && n.Kind == ddg.OpCopy {
			r.Report(diag.Diagnostic{
				Code: lint.CodePreAssignCopy, Severity: diag.Warning,
				Subject: fmt.Sprintf("node %d", i),
				Message: fmt.Sprintf("node %d is an explicit copy; copies are normally inserted by cluster assignment, not present in its input", i),
				Fix:     "drop the copy and let assignment place inter-cluster moves",
			})
		}
	}
	return append(diags, r.Diagnostics()...)
}

func checkGraphOracle(g *ddg.Graph) error {
	if got, want := lint.Graph(g), oracleGraph(g); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("lint.Graph = %v, oracle %v", got, want)
	}
	return nil
}

// literalGraph assembles a graph by struct literal, so edges may dangle
// or carry negative distances.
func literalGraph(kinds []ddg.OpKind, edges ...ddg.Edge) *ddg.Graph {
	g := &ddg.Graph{Edges: edges}
	for i, k := range kinds {
		g.Nodes = append(g.Nodes, &ddg.Node{ID: i, Kind: k})
	}
	return g
}

func TestGraphOracleOnCornerCases(t *testing.T) {
	alu3 := []ddg.OpKind{ddg.OpALU, ddg.OpALU, ddg.OpALU}
	cases := map[string]*ddg.Graph{
		"empty":         ddg.NewGraph(0, 0),
		"isolated":      literalGraph([]ddg.OpKind{ddg.OpALU}),
		"isolated-pair": literalGraph([]ddg.OpKind{ddg.OpALU, ddg.OpBranch}),
		"self-dist0":    literalGraph(alu3, ddg.Edge{From: 0, To: 0}, ddg.Edge{From: 1, To: 2}),
		"self-dist1":    literalGraph(alu3, ddg.Edge{From: 0, To: 0, Distance: 1}, ddg.Edge{From: 1, To: 2}),
		"double":        literalGraph(alu3, ddg.Edge{From: 0, To: 1}, ddg.Edge{From: 0, To: 1}, ddg.Edge{From: 1, To: 2}),
		"triple": literalGraph(alu3, ddg.Edge{From: 0, To: 1}, ddg.Edge{From: 1, To: 2},
			ddg.Edge{From: 0, To: 1}, ddg.Edge{From: 0, To: 1}, ddg.Edge{From: 1, To: 2}, ddg.Edge{From: 1, To: 2}, ddg.Edge{From: 1, To: 2}),
		"pair-thrice-distinct": literalGraph(alu3, ddg.Edge{From: 0, To: 1}, ddg.Edge{From: 0, To: 1, Distance: 1},
			ddg.Edge{From: 0, To: 1, Distance: 2}, ddg.Edge{From: 1, To: 2}),
		"dangling": literalGraph(alu3, ddg.Edge{From: 0, To: 3}, ddg.Edge{From: -1, To: 1},
			ddg.Edge{From: -1, To: 1}, ddg.Edge{From: -1, To: 1}),
		"negative": literalGraph(alu3, ddg.Edge{From: 0, To: 1, Distance: -1}, ddg.Edge{From: 0, To: 1, Distance: -1},
			ddg.Edge{From: 0, To: 1, Distance: -1}),
		"copy": literalGraph([]ddg.OpKind{ddg.OpALU, ddg.OpCopy}, ddg.Edge{From: 0, To: 1}),
		"nil-node": {Nodes: []*ddg.Node{{ID: 0}, nil, {ID: 2}},
			Edges: []ddg.Edge{{From: 0, To: 2}, {From: 2, To: 0, Distance: 1}}},
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			if err := checkGraphOracle(g); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGraphOracleOnSuiteAndAssignedGraphs compares lint.Graph with the
// oracle on the paper's suite and on the annotated graphs assignment
// builds from it on the three headline machines, whose copy nodes draw
// DDG009.
func TestGraphOracleOnSuiteAndAssignedGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules the suite on three machines")
	}
	loops := loopgen.Suite(loopgen.Options{Seed: 1, Count: loopgen.DefaultCount})
	for i, g := range loops {
		if err := checkGraphOracle(g); err != nil {
			t.Fatalf("suite loop %d: %v", i, err)
		}
	}
	opts := pipeline.Options{Assign: assign.Options{Variant: assign.HeuristicIterative}}
	for _, m := range []*machine.Config{machine.NewBusedGP(2, 2, 1), machine.NewBusedGP(4, 4, 2), machine.NewGrid4(2)} {
		s := pipeline.NewSession(m, opts)
		for i, g := range loops {
			out, err := s.Schedule(context.Background(), g)
			if err != nil {
				continue
			}
			if err := checkGraphOracle(out.Assignment.Graph); err != nil {
				t.Fatalf("loop %d assigned on %s: %v", i, m.Name, err)
			}
		}
	}
}

// FuzzGraphOracle compares lint.Graph with the oracle on graphs built
// from raw edge lists: the first byte sizes the graph and picks its
// kinds, and each following triple is one edge whose endpoints may
// dangle and whose distance may be negative.
func FuzzGraphOracle(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0})
	f.Add([]byte{3, 0, 0, 0, 1, 4, 0, 1, 4, 0, 1, 4, 0})
	f.Add([]byte{5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 16)
		kinds := make([]ddg.OpKind, n)
		for i := range kinds {
			kinds[i] = ddg.OpKind((int(data[0]) + i) % ddg.NumOpKinds)
		}
		var edges []ddg.Edge
		for k := 1; k+2 < len(data); k += 3 {
			edges = append(edges, ddg.Edge{
				From:     int(data[k])%(n+2) - 1,
				To:       int(data[k+1])%(n+2) - 1,
				Distance: int(data[k+2]%4) - 1,
			})
		}
		if err := checkGraphOracle(literalGraph(kinds, edges...)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGraphAllocsOnCleanSuite gates lint.Graph on clean graphs whose
// adjacency is already built, as on the warm scheduling path: the
// zero-distance-cycle search's one slab is its only allocation.
func TestGraphAllocsOnCleanSuite(t *testing.T) {
	for i, g := range loopgen.Suite(loopgen.Options{Seed: 1, Count: 200}) {
		if diags := lint.Graph(g); len(diags) != 0 {
			t.Fatalf("suite loop %d is not clean: %v", i, diags[0])
		}
		if a := testing.AllocsPerRun(10, func() { lint.Graph(g) }); a > 1 {
			t.Fatalf("lint.Graph of clean suite loop %d allocates %.0f times, want <= 1", i, a)
		}
	}
}
