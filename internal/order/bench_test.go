package order

import (
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
)

func BenchmarkCompute(b *testing.B) {
	loops := loopgen.Suite(loopgen.Options{Seed: 5, Count: 128})
	lats := machine.DefaultLatencies()
	lat := func(k ddg.OpKind) int { return lats[k] }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(Scratch).Compute(loops[i%len(loops)], lat)
	}
}
