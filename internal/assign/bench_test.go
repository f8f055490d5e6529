package assign

import (
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
)

// benchAssign measures one full assignment run per iteration over a
// representative loop mix.
func benchAssign(b *testing.B, m *machine.Config, v Variant) {
	b.Helper()
	loops := loopgen.Suite(loopgen.Options{Seed: 1, Count: 64})
	iis := make([]int, len(loops))
	for i, g := range loops {
		iis[i] = mii.MII(g, m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := loops[i%len(loops)]
		Run(g, m, iis[i%len(loops)], Options{Variant: v})
	}
}

func BenchmarkAssign2ClusterHeuristicIterative(b *testing.B) {
	benchAssign(b, machine.NewBusedGP(2, 2, 1), HeuristicIterative)
}

func BenchmarkAssign4ClusterHeuristicIterative(b *testing.B) {
	benchAssign(b, machine.NewBusedGP(4, 4, 2), HeuristicIterative)
}

func BenchmarkAssign2ClusterSimple(b *testing.B) {
	benchAssign(b, machine.NewBusedGP(2, 2, 1), Simple)
}

func BenchmarkAssignGrid(b *testing.B) {
	benchAssign(b, machine.NewGrid4(2), HeuristicIterative)
}

// BenchmarkAssignRing exercises the chained point-to-point path: a
// six-cluster ring where remote values forward over multi-hop link
// routes.
func BenchmarkAssignRing(b *testing.B) {
	benchAssign(b, machine.NewRing(6, 2), HeuristicIterative)
}

// BenchmarkAssignHighBacktracking starves the copy fabric (one bus,
// single ports across four clusters) so forced placement and eviction
// dominate — the worst case for the incremental engine, which pays a
// failed apply and a violation scan for every eviction.
func BenchmarkAssignHighBacktracking(b *testing.B) {
	benchAssign(b, machine.NewBusedGP(4, 1, 1), HeuristicIterative)
}

// BenchmarkAssign4ClusterReference runs the scratch-derive reference
// implementation on the 4-cluster workload, quantifying in-tree what
// the incremental engine saves.
func BenchmarkAssign4ClusterReference(b *testing.B) {
	m := machine.NewBusedGP(4, 4, 2)
	loops := loopgen.Suite(loopgen.Options{Seed: 1, Count: 64})
	iis := make([]int, len(loops))
	for i, g := range loops {
		iis[i] = mii.MII(g, m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := loops[i%len(loops)]
		Run(g, m, iis[i%len(loops)], Options{Variant: HeuristicIterative, scratchEval: true})
	}
}

// BenchmarkAssignLargeLoop isolates the cost on the suite's biggest
// graphs (around 160 operations).
func BenchmarkAssignLargeLoop(b *testing.B) {
	var g *ddg.Graph
	for _, cand := range loopgen.Suite(loopgen.Options{Seed: 1, Count: 400}) {
		if g == nil || cand.NumNodes() > g.NumNodes() {
			g = cand
		}
	}
	m := machine.NewBusedGP(4, 4, 2)
	ii := mii.MII(g, m)
	b.ReportMetric(float64(g.NumNodes()), "nodes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, m, ii, Options{Variant: HeuristicIterative})
	}
}
