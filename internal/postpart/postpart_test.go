package postpart

import (
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
	"clustersched/internal/pipeline"
	"clustersched/internal/sched"
	"clustersched/internal/verify"
)

func TestBaselineSchedulesValidly(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 14, Count: 60})
	m := machine.NewBusedGP(2, 2, 1)
	for i, g := range loops {
		out, err := Run(g, m)
		if err != nil {
			t.Errorf("loop %d: %v", i, err)
			continue
		}
		in := sched.Input{
			Graph:       out.Assignment.Graph,
			Machine:     m,
			ClusterOf:   out.Assignment.ClusterOf,
			CopyTargets: out.Assignment.CopyTargets,
			II:          out.II,
		}
		if err := verify.Schedule(in, out.Schedule); err != nil {
			t.Errorf("loop %d: invalid schedule: %v", i, err)
		}
		if out.II < out.MII {
			t.Errorf("loop %d: II %d below MII %d", i, out.II, out.MII)
		}
	}
}

// TestPreSchedulingAssignmentBeatsBaseline reproduces the paper's
// related-work argument: partitioning after scheduling ignores
// recurrences, so the pre-scheduling assignment must match the unified
// II on clearly more loops.
func TestPreSchedulingAssignmentBeatsBaseline(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 16, Count: 200})
	m := machine.NewBusedGP(2, 2, 1)
	u := m.Unified()
	preMatch, postMatch, total := 0, 0, 0
	for _, g := range loops {
		uo, err := pipeline.Run(g, u, pipeline.Options{})
		if err != nil {
			continue
		}
		pre, err1 := pipeline.Run(g, m, pipeline.Options{
			Assign: assign.Options{Variant: assign.HeuristicIterative},
		})
		post, err2 := Run(g, m)
		if err1 != nil || err2 != nil {
			continue
		}
		total++
		if pre.II <= uo.II {
			preMatch++
		}
		if post.II <= uo.II {
			postMatch++
		}
	}
	if total < 150 {
		t.Fatalf("only %d comparable loops", total)
	}
	if preMatch <= postMatch {
		t.Errorf("pre-scheduling assignment (%d/%d) should beat post-scheduling partitioning (%d/%d)",
			preMatch, total, postMatch, total)
	}
}

func TestBaselineRejectsInvalidGraph(t *testing.T) {
	g := ddg.NewGraph(2, 2)
	a := g.AddNode(ddg.OpALU, "")
	b := g.AddNode(ddg.OpALU, "")
	g.AddEdge(a, b, 0)
	g.AddEdge(b, a, 0)
	if _, err := Run(g, machine.NewBusedGP(2, 2, 1)); err == nil {
		t.Error("invalid graph accepted")
	}
}
