package compile

import (
	"context"
	"testing"

	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
)

// benchUnit is corpus-compile's generated slice: the first
// 4*CorpusCount programs of the regression corpus's stream.
func benchUnit() string { return loopgen.SourceCorpus(CorpusSeed, 4*CorpusCount) }

func benchOptions() Options {
	opts := testOptions()
	opts.Workers = 2
	opts.StageSched = true
	return opts
}

// BenchmarkSourceCorpus is one whole compile.Source of the generated
// unit on two workers with stage scheduling, the corpus-compile
// configuration: frontend, lint, schedule, stagesched, regalloc and
// emit.
func BenchmarkSourceCorpus(b *testing.B) {
	src, m, opts := benchUnit(), machine.NewBusedGP(2, 2, 1), benchOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Source(context.Background(), src, m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSourceCorpusAllocs gates the allocation count of one whole unit.
// The scheduler's own allocations dominate what is left; the frontend
// and the MVE check outside it are slab-based.
func TestSourceCorpusAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 96-loop unit 20 times")
	}
	src, m, opts := benchUnit(), machine.NewBusedGP(2, 2, 1), benchOptions()
	const limit = 9000
	if a := testing.AllocsPerRun(20, func() {
		if _, err := Source(context.Background(), src, m, opts); err != nil {
			t.Fatal(err)
		}
	}); a > limit {
		t.Errorf("compile.Source allocates %.0f times per unit, want <= %d", a, limit)
	}
}
