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
// unit. Its corpus-compile case is the benchmark's configuration: two
// workers with stage scheduling, through parse, build, schedule,
// stagesched, regalloc and emit. Its workers1-validate case adds sim
// validation on one worker, where every stage hop is paid serially.
func BenchmarkSourceCorpus(b *testing.B) {
	validate := benchOptions()
	validate.Workers, validate.Validate = 1, true
	for _, c := range []struct {
		name string
		opts Options
	}{{"corpus-compile", benchOptions()}, {"workers1-validate", validate}} {
		b.Run(c.name, func(b *testing.B) {
			src, m := benchUnit(), machine.NewBusedGP(2, 2, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Source(context.Background(), src, m, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSourceCorpusAllocs gates the allocation count of one whole unit.
// The scheduler's own allocations dominate what is left; the frontend
// and the MVE check outside it are slab-based. A plain run measures
// ~5.2k; the bound also holds in the race pass, where the detector's
// sync.Pool drops lift the count to ~5.75k.
func TestSourceCorpusAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 96-loop unit 20 times")
	}
	src, m, opts := benchUnit(), machine.NewBusedGP(2, 2, 1), benchOptions()
	const limit = 6000
	if a := testing.AllocsPerRun(20, func() {
		if _, err := Source(context.Background(), src, m, opts); err != nil {
			t.Fatal(err)
		}
	}); a > limit {
		t.Errorf("compile.Source allocates %.0f times per unit, want <= %d", a, limit)
	}
}
