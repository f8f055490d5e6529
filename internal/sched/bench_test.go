package sched

import (
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
)

// fixtures prepares assigned inputs so the benchmarks time scheduling
// alone.
func fixtures(b *testing.B, m *machine.Config) []Input {
	b.Helper()
	loops := loopgen.Suite(loopgen.Options{Seed: 2, Count: 64})
	var ins []Input
	for _, g := range loops {
		base := mii.MII(g, m)
		for ii := base; ii < base+8; ii++ {
			res, ok := assign.Run(g, m, ii, assign.Options{Variant: assign.HeuristicIterative})
			if !ok {
				continue
			}
			ins = append(ins, Input{
				Graph:       res.Graph,
				Machine:     m,
				ClusterOf:   res.ClusterOf,
				CopyTargets: res.CopyTargets,
				II:          ii,
			})
			break
		}
	}
	if len(ins) == 0 {
		b.Fatal("no fixtures")
	}
	return ins
}

func BenchmarkIMS2Cluster(b *testing.B) {
	ins := fixtures(b, machine.NewBusedGP(2, 2, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IMS(ins[i%len(ins)])
	}
}

func BenchmarkSMS2Cluster(b *testing.B) {
	ins := fixtures(b, machine.NewBusedGP(2, 2, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SMS(ins[i%len(ins)])
	}
}

func BenchmarkIMSUnified16(b *testing.B) {
	m := machine.NewUnifiedGP(16)
	loops := loopgen.Suite(loopgen.Options{Seed: 3, Count: 64})
	var ins []Input
	for _, g := range loops {
		ins = append(ins, Input{Graph: g, Machine: m, II: mii.MII(g, m)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IMS(ins[i%len(ins)])
	}
}
