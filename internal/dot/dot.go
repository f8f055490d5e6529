// Package dot renders dependence graphs and scheduled loops in the
// Graphviz DOT language, clustered by register file, so assignments
// and copy routes can be inspected visually (`dot -Tsvg`).
package dot

import (
	"fmt"
	"sort"
	"strings"

	"clustersched/internal/ddg"
	"clustersched/internal/sched"
)

// Render renders an assigned (and possibly scheduled) loop: one DOT
// subgraph cluster per machine cluster, copy nodes as ellipses, and
// scheduled cycles in the labels. The schedule may be nil.
func Render(in sched.Input, s *sched.Schedule) string {
	g := in.Graph
	var b strings.Builder
	b.WriteString("digraph schedule {\n  rankdir=TB;\n  node [shape=box, fontname=monospace];\n")

	byCluster := map[int][]int{}
	for n := 0; n < g.NumNodes(); n++ {
		cl := 0
		if in.ClusterOf != nil {
			cl = in.ClusterOf[n]
		}
		byCluster[cl] = append(byCluster[cl], n)
	}
	clusters := make([]int, 0, len(byCluster))
	for cl := range byCluster {
		clusters = append(clusters, cl)
	}
	sort.Ints(clusters)

	for _, cl := range clusters {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=\"cluster %d\";\n    style=dashed;\n", cl, cl)
		for _, n := range byCluster[cl] {
			cycle := -1
			if s != nil {
				cycle = s.CycleOf[n]
			}
			shape := ""
			if g.Nodes[n].Kind == ddg.OpCopy {
				shape = ", shape=ellipse"
			}
			fmt.Fprintf(&b, "    n%d [label=%q%s];\n", n, nodeLabel(g, n, cycle), shape)
		}
		b.WriteString("  }\n")
	}
	writeEdges(&b, g)
	b.WriteString("}\n")
	return b.String()
}

func nodeLabel(g *ddg.Graph, n, cycle int) string {
	node := g.Nodes[n]
	label := fmt.Sprintf("n%d %s", n, node.Kind)
	if node.Name != "" {
		label += " " + node.Name
	}
	if cycle >= 0 {
		label += fmt.Sprintf("\n@%d", cycle)
	}
	return label
}

func writeEdges(b *strings.Builder, g *ddg.Graph) {
	for _, e := range g.Edges {
		attrs := ""
		if e.Distance > 0 {
			attrs = fmt.Sprintf(" [label=\"%d\", style=dashed]", e.Distance)
		}
		fmt.Fprintf(b, "  n%d -> n%d%s;\n", e.From, e.To, attrs)
	}
}
