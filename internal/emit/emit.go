// Package emit renders finished modulo schedules as textual VLIW code:
// the steady-state kernel (II instruction rows, each naming the
// operations every cluster issues, with stage annotations), and the
// software-pipeline prologue and epilogue that ramp the overlapped
// iterations in and out.
package emit

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"clustersched/internal/ddg"
	"clustersched/internal/sched"
)

// opLabel names a node for code output.
func opLabel(g *ddg.Graph, n int) string {
	node := g.Nodes[n]
	if node.Name != "" {
		return fmt.Sprintf("%s:%s", node.Kind, node.Name)
	}
	return fmt.Sprintf("%s:n%d", node.Kind, n)
}

func clusterOf(in sched.Input, n int) int {
	if in.ClusterOf == nil {
		return 0
	}
	return in.ClusterOf[n]
}

// Kernel renders the steady-state kernel: one row per modulo slot,
// one column per cluster, each operation tagged with its stage (the
// iteration offset it executes for). Operations issue in start-cycle
// order; a counting sort then buckets them into (slot, cluster) cells
// without disturbing that order, and the text is appended into one
// pre-sized buffer.
func Kernel(in sched.Input, s *sched.Schedule) string {
	g := in.Graph
	n := g.NumNodes()
	nc := in.Machine.NumClusters()
	cells := s.II * nc
	// One backing array: the issue order, the same nodes bucketed by
	// cell, and the counting sort's cell boundaries.
	ints := make([]int, 2*n+cells+1)
	order, bucketed, end := ints[:n], ints[n:2*n], ints[2*n:]
	for i := range order {
		order[i] = i
	}
	// sort.Slice is not stable: the tie order among equal cycles is
	// part of the output, so this call must not change.
	sort.Slice(order, func(a, b int) bool { return s.CycleOf[order[a]] < s.CycleOf[order[b]] })

	cellOf := func(v int) int {
		slot := ((s.CycleOf[v] % s.II) + s.II) % s.II
		return slot*nc + clusterOf(in, v)
	}
	size := 48 + s.II*8 + cells*8
	for _, v := range order {
		end[cellOf(v)+1]++
		node := g.Nodes[v]
		size += len(node.Name) + 32
		if node.Kind == ddg.OpCopy && in.CopyTargets != nil {
			size += 4 + 4*len(in.CopyTargets[v])
		}
	}
	for c := 1; c <= cells; c++ {
		end[c] += end[c-1]
	}
	// Placing a node advances its cell's start, so afterwards end[c]
	// is where cell c ends and end[c-1] where it begins.
	for _, v := range order {
		c := cellOf(v)
		bucketed[end[c]] = v
		end[c]++
	}

	var b strings.Builder
	b.Grow(size)
	b.WriteString("kernel: II=")
	writeInt(&b, s.II)
	b.WriteString(", stages=")
	writeInt(&b, s.StageCount())
	b.WriteByte('\n')
	begin := 0
	for slot := 0; slot < s.II; slot++ {
		b.WriteString("  ")
		if slot < 10 {
			b.WriteByte(' ')
		}
		writeInt(&b, slot)
		b.WriteByte(':')
		for cl := 0; cl < nc; cl++ {
			c := slot*nc + cl
			ops := bucketed[begin:end[c]]
			begin = end[c]
			if len(ops) == 0 {
				continue
			}
			b.WriteString("  c")
			writeInt(&b, cl)
			b.WriteByte('{')
			for i, v := range ops {
				if i > 0 {
					b.WriteByte(' ')
				}
				writeKernelOp(&b, in, s, v)
			}
			b.WriteByte('}')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// writeKernelOp appends one kernel entry: the op label, its stage, and
// for a copy the clusters it delivers to, as "kind:name[sN]->[a b]".
func writeKernelOp(b *strings.Builder, in sched.Input, s *sched.Schedule, v int) {
	node := in.Graph.Nodes[v]
	b.WriteString(node.Kind.String())
	b.WriteByte(':')
	if node.Name != "" {
		b.WriteString(node.Name)
	} else {
		b.WriteByte('n')
		writeInt(b, v)
	}
	b.WriteString("[s")
	writeInt(b, s.CycleOf[v]/s.II)
	b.WriteByte(']')
	if node.Kind == ddg.OpCopy && in.CopyTargets != nil {
		b.WriteString("->[")
		for i, t := range in.CopyTargets[v] {
			if i > 0 {
				b.WriteByte(' ')
			}
			writeInt(b, t)
		}
		b.WriteByte(']')
	}
}

// writeInt appends v in decimal.
func writeInt(b *strings.Builder, v int) {
	var tmp [20]byte
	b.Write(strconv.AppendInt(tmp[:0], int64(v), 10))
}

// Pipelined renders prologue, kernel, and epilogue. The prologue rows
// are the absolute cycles before the kernel reaches steady state; the
// epilogue drains the final iterations. Rows are labelled with the
// iteration each operation belongs to.
func Pipelined(in sched.Input, s *sched.Schedule) string {
	g := in.Graph
	stages := s.StageCount()
	var b strings.Builder

	rowOf := func(iter, absCycle int) []string {
		var ops []string
		for n := 0; n < g.NumNodes(); n++ {
			if s.CycleOf[n]+iter*s.II == absCycle {
				ops = append(ops, fmt.Sprintf("c%d:%s(i%d)", clusterOf(in, n), opLabel(g, n), iter))
			}
		}
		return ops
	}

	fmt.Fprintf(&b, "software pipeline: II=%d, stages=%d\n", s.II, stages)
	b.WriteString("prologue:\n")
	for t := 0; t < (stages-1)*s.II; t++ {
		var ops []string
		for iter := 0; iter*s.II <= t; iter++ {
			ops = append(ops, rowOf(iter, t)...)
		}
		fmt.Fprintf(&b, "  %3d: %s\n", t, strings.Join(ops, " "))
	}
	b.WriteString(Kernel(in, s))
	b.WriteString("epilogue:\n")
	// The last stages-1 iterations finish after the kernel exits. Let
	// iteration 0 be the first of the final in-flight group; iteration
	// k (1..stages-1) entered the kernel k*II cycles later.
	base := (stages - 1) * s.II
	for t := base; t < base+(stages-1)*s.II; t++ {
		var ops []string
		for iter := 1; iter < stages; iter++ {
			for n := 0; n < g.NumNodes(); n++ {
				if s.CycleOf[n]+iter*s.II == t+s.II {
					ops = append(ops, fmt.Sprintf("c%d:%s(i+%d)", clusterOf(in, n), opLabel(g, n), iter))
				}
			}
		}
		fmt.Fprintf(&b, "  %3d: %s\n", t-base, strings.Join(ops, " "))
	}
	return b.String()
}

// Gantt renders an occupancy timeline of the kernel: one row per
// cluster, one column per modulo slot, each cell showing how many of
// the cluster's function units issue in that slot (and '+' when copies
// move values that cycle), with per-cluster utilization percentages —
// a quick visual answer to "how full did the machine get".
func Gantt(in sched.Input, s *sched.Schedule) string {
	g := in.Graph
	numClusters := in.Machine.NumClusters()
	ops := make([][]int, numClusters)    // [cluster][slot] issue count
	copies := make([][]int, numClusters) // [cluster][slot] copies sourced
	for i := range ops {
		ops[i] = make([]int, s.II)
		copies[i] = make([]int, s.II)
	}
	for n := 0; n < g.NumNodes(); n++ {
		slot := ((s.CycleOf[n] % s.II) + s.II) % s.II
		cl := clusterOf(in, n)
		if g.Nodes[n].Kind == ddg.OpCopy {
			copies[cl][slot]++
		} else {
			ops[cl][slot]++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "kernel occupancy (II=%d):\n", s.II)
	for cl := 0; cl < numClusters; cl++ {
		width := in.Machine.Clusters[cl].Width()
		used := 0
		fmt.Fprintf(&b, "  c%-2d |", cl)
		for slot := 0; slot < s.II; slot++ {
			used += ops[cl][slot]
			cell := ' '
			switch {
			case ops[cl][slot] == 0:
				cell = '.'
			case ops[cl][slot] >= width:
				cell = '#'
			default:
				cell = rune('0' + ops[cl][slot])
			}
			b.WriteRune(cell)
			if copies[cl][slot] > 0 {
				b.WriteRune('+')
			} else {
				b.WriteRune(' ')
			}
		}
		util := 0.0
		if width > 0 && s.II > 0 {
			util = 100 * float64(used) / float64(width*s.II)
		}
		fmt.Fprintf(&b, "| %3.0f%% of %d units\n", util, width)
	}
	b.WriteString("  (digit = ops issued that slot, # = full row, + = copy sourced)\n")
	return b.String()
}
