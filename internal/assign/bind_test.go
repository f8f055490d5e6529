package assign

import (
	"fmt"
	"reflect"
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
)

// runToSuccess escalates ii until the problem succeeds (bounded), and
// returns every per-II observable: the failing IIs' partials and the
// succeeding Result.
func runToSuccess(t *testing.T, p *Problem, g *ddg.Graph, m *machine.Config) (partials [][]int, res *Result, ii int) {
	t.Helper()
	ii = mii.MII(g, m)
	for end := ii + 16; ii <= end; ii++ {
		r, ok := p.RunAt(ii, nil, nil)
		if ok {
			return partials, r, ii
		}
		partials = append(partials, append([]int(nil), p.Partial()...))
	}
	t.Fatalf("no assignment within II %d", ii)
	return nil, nil, 0
}

// TestProblemBindMatchesFresh pins Bind's contract: a pooled problem
// rebound at a new graph runs byte-identical to a freshly constructed
// one — same per-II failures, same partials, same final Result.
func TestProblemBindMatchesFresh(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 21, Count: 24})
	for mi, m := range diffMachines() {
		opts := Options{Variant: HeuristicIterative}
		pooled := NewProblem(loops[0], m, opts)
		for li, g := range loops {
			pooled.Bind(g, nil, nil)
			fresh := NewProblem(g, m, opts)
			wantParts, wantRes, wantII := runToSuccess(t, fresh, g, m)
			gotParts, gotRes, gotII := runToSuccess(t, pooled, g, m)
			tag := fmt.Sprintf("machine %d loop %d", mi, li)
			if wantII != gotII {
				t.Fatalf("%s: success II %d (pooled) vs %d (fresh)", tag, gotII, wantII)
			}
			if !reflect.DeepEqual(gotParts, wantParts) {
				t.Fatalf("%s: partials diverge:\n pooled %v\n fresh  %v", tag, gotParts, wantParts)
			}
			if !reflect.DeepEqual(gotRes.ClusterOf, wantRes.ClusterOf) ||
				!reflect.DeepEqual(gotRes.CopyTargets, wantRes.CopyTargets) ||
				gotRes.NumOriginal != wantRes.NumOriginal ||
				gotRes.Copies != wantRes.Copies ||
				gotRes.Evictions != wantRes.Evictions {
				t.Fatalf("%s: results diverge:\n pooled %+v\n fresh  %+v", tag, gotRes, wantRes)
			}
		}
	}
}

// chainLoop builds a straight dependence chain of n ALU operations
// with a closing recurrence, big enough to stress slab sizing.
func chainLoop(n int) *ddg.Graph {
	g := ddg.NewGraph(n, n)
	for i := 0; i < n; i++ {
		g.AddNode(ddg.OpALU, fmt.Sprintf("n%d", i))
	}
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i, 0)
	}
	g.AddEdge(n-1, 0, 1)
	return g
}

// TestBindShrinksSlab checks the retention policy: rebinding a problem
// grown for a huge loop at a tiny one drops the oversized slab instead
// of pinning it for the rest of the session — and rebinding at a
// similar size keeps the backing stable.
func TestBindShrinksSlab(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1)
	big, small := chainLoop(1200), chainLoop(8)
	p := NewProblem(big, m, Options{Variant: HeuristicIterative})
	grown := cap(p.a.slabInts)
	p.Bind(small, nil, nil)
	if shrunk := cap(p.a.slabInts); shrunk >= grown {
		t.Fatalf("slab not shrunk: cap %d after big loop, %d after small", grown, shrunk)
	}
	if _, ok := p.RunAt(mii.MII(small, m), nil, nil); !ok {
		t.Fatalf("rebound problem failed on the small loop")
	}
	// Same-sized rebinds must not churn the backing array.
	p.Bind(big, nil, nil)
	stable := cap(p.a.slabInts)
	p.Bind(chainLoop(1200), nil, nil)
	if got := cap(p.a.slabInts); got != stable {
		t.Fatalf("slab churned on same-sized rebind: cap %d -> %d", stable, got)
	}
}

// TestBindWarmRebindAllocFree gates the pooling payoff: once a problem
// (and the graphs' lazy caches) are warm, rebinding between loops of
// the same shape allocates nothing.
func TestBindWarmRebindAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; accounting is meaningless")
	}
	m := machine.NewBusedGP(4, 4, 2)
	g1, g2 := chainLoop(64), chainLoop(64)
	p := NewProblem(g1, m, Options{Variant: HeuristicIterative})
	for i := 0; i < 4; i++ {
		p.Bind(g2, nil, nil)
		p.Bind(g1, nil, nil)
	}
	if avg := testing.AllocsPerRun(20, func() {
		p.Bind(g2, nil, nil)
		p.Bind(g1, nil, nil)
	}); avg != 0 {
		t.Fatalf("warm rebind allocates %.1f times per cycle, want 0", avg)
	}
}
