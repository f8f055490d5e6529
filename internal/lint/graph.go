package lint

import (
	"fmt"

	"clustersched/internal/ddg"
	"clustersched/internal/diag"
)

// Advisory graph codes, continuing the DDG001-DDG006 structural codes
// owned by ddg.Graph.Lint.
const (
	CodeDuplicateEdge = "DDG007" // identical dependence recorded twice
	CodeIsolatedNode  = "DDG008" // non-branch node with no dependences
	CodePreAssignCopy = "DDG009" // copy node in a pre-assignment graph
)

// Graph checks a pre-assignment dependence graph: every structural
// invariant of ddg.Graph.Lint plus advisory findings — duplicate
// edges, isolated nodes, and copy nodes (which only cluster assignment
// should introduce).
func Graph(g *ddg.Graph) []diag.Diagnostic {
	diags := g.Lint()
	var r diag.Reporter

	// An out-of-range endpoint (already a Lint error) rules out the
	// graph's adjacency lists, so such graphs take the general paths.
	inRange := true
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= g.NumNodes() || e.To < 0 || e.To >= g.NumNodes() {
			inRange = false
			break
		}
	}

	// Two identical edges are idiomatic — one value feeding both
	// operands of a consumer (x*x). Three or more identical records
	// cannot all be operand uses and indicate a redundant dependence.
	if !inRange || pairRecordedThrice(g) {
		count := make(map[ddg.Edge]int, len(g.Edges))
		for _, e := range g.Edges {
			count[e]++
		}
		for i, e := range g.Edges {
			if c := count[e]; c > 2 {
				count[e] = -1 // report each offending dependence once, at its first edge
				dups := make([]int, 0, c)
				for j, e2 := range g.Edges {
					if e2 == e {
						dups = append(dups, j)
					}
				}
				r.Report(diag.Diagnostic{
					Code: CodeDuplicateEdge, Severity: diag.Warning,
					Subject: fmt.Sprintf("edge %d", i),
					Message: fmt.Sprintf("dependence n%d -> n%d dist=%d is recorded %d times (edges %v)",
						e.From, e.To, e.Distance, c, dups),
					Fix: "record a dependence once per operand use; drop the redundant edges",
				})
			}
		}
	}

	if g.NumNodes() > 1 {
		isolated := func(i int) bool {
			return len(g.OutEdges(i)) == 0 && len(g.InEdges(i)) == 0
		}
		if !inRange {
			degree := make([]int, g.NumNodes())
			for _, e := range g.Edges {
				if e.From >= 0 && e.From < g.NumNodes() {
					degree[e.From]++
				}
				if e.To >= 0 && e.To < g.NumNodes() {
					degree[e.To]++
				}
			}
			isolated = func(i int) bool { return degree[i] == 0 }
		}
		for i, n := range g.Nodes {
			if n == nil || !isolated(i) {
				continue
			}
			// The loop-closing branch legitimately carries no data
			// dependences; anything else dangling is suspect.
			if n.Kind == ddg.OpBranch {
				continue
			}
			r.Report(diag.Diagnostic{
				Code: CodeIsolatedNode, Severity: diag.Warning,
				Subject: fmt.Sprintf("node %d", i),
				Message: fmt.Sprintf("node %d (%s) has no dependences; it is unreachable from the rest of the loop", i, n.Kind),
				Fix:     "remove the operation or wire it into the dataflow",
			})
		}
	}

	for i, n := range g.Nodes {
		if n != nil && n.Kind == ddg.OpCopy {
			r.Report(diag.Diagnostic{
				Code: CodePreAssignCopy, Severity: diag.Warning,
				Subject: fmt.Sprintf("node %d", i),
				Message: fmt.Sprintf("node %d is an explicit copy; copies are normally inserted by cluster assignment, not present in its input", i),
				Fix:     "drop the copy and let assignment place inter-cluster moves",
			})
		}
	}

	return append(diags, r.Diagnostics()...)
}

// pairRecordedThrice reports whether some node has three or more
// out-edges to the same consumer, whatever their distances: the
// precondition of a duplicate-edge finding, checked without building
// the edge map. A node needs at least two more out-edges than distinct
// successors to qualify, so per-consumer counts are taken only there.
// The graph's endpoints must all be in range.
func pairRecordedThrice(g *ddg.Graph) bool {
	var count []int32
	for u := 0; u < g.NumNodes(); u++ {
		out := g.OutEdges(u)
		if len(out)-len(g.Successors(u)) < 2 {
			continue
		}
		if count == nil {
			count = make([]int32, g.NumNodes())
		}
		found := false
		for _, e := range out {
			count[e.To]++
			found = found || count[e.To] > 2
		}
		for _, e := range out {
			count[e.To] = 0
		}
		if found {
			return true
		}
	}
	return false
}
