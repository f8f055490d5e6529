package ddg_test

import (
	"context"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
)

// TestOraclesOnSuiteAndAssignedGraphs checks the oracles on the paper's
// 1327-loop suite and on the annotated graphs cluster assignment builds
// from it on the three headline machines, copies included.
func TestOraclesOnSuiteAndAssignedGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules the suite on three machines")
	}
	loops := loopgen.Suite(loopgen.Options{Seed: 1, Count: loopgen.DefaultCount})
	for i, g := range loops {
		if err := ddg.CheckOracles(g); err != nil {
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
			if err := ddg.CheckOracles(out.Assignment.Graph); err != nil {
				t.Fatalf("loop %d assigned on %s: %v", i, m.Name, err)
			}
		}
	}
}
