package livermore

import (
	"strings"
	"testing"

	"clustersched/internal/assign"
	"clustersched/internal/ddg"
	"clustersched/internal/machine"
	"clustersched/internal/mii"
	"clustersched/internal/pipeline"
	"clustersched/internal/regalloc"
	"clustersched/internal/sched"
	"clustersched/internal/sim"
	"clustersched/internal/verify"
)

func TestKernelsCompile(t *testing.T) {
	loops, err := Kernels()
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 14 {
		t.Fatalf("got %d kernels, want 14", len(loops))
	}
	for _, l := range loops {
		if !strings.HasPrefix(l.Name, "lfk") {
			t.Errorf("unexpected kernel name %q", l.Name)
		}
		if err := l.Graph.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
	}
}

// TestKnownRecurrences pins the dependence structure of the kernels
// whose published form is a recurrence.
func TestKnownRecurrences(t *testing.T) {
	loops, err := Kernels()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*ddg.Graph{}
	for _, l := range loops {
		byName[l.Name] = l.Graph
	}
	lat := machine.DefaultLatencies()
	latf := func(k ddg.OpKind) int { return lat[k] }

	recMII := func(name string) int {
		g, ok := byName[name]
		if !ok {
			t.Fatalf("kernel %q missing", name)
		}
		return mii.RecMII(g, latf)
	}

	// LFK 5: x[i] = z[i]*(y[i] - x[i-1]) — cycle is fadd(1) + fmul(3)
	// + store(1) + load(2) through memory = 7.
	if got := recMII("lfk05_tridiag"); got != 7 {
		t.Errorf("lfk05 RecMII = %d, want 7", got)
	}
	// LFK 11: x[i] = x[i-1] + y[i] — fadd(1) + store(1) + load(2) = 4.
	if got := recMII("lfk11_firstsum"); got != 4 {
		t.Errorf("lfk11 RecMII = %d, want 4", got)
	}
	// LFK 3: scalar reduction — the fadd self-cycle = 1.
	if got := recMII("lfk03_innerprod"); got != 1 {
		t.Errorf("lfk03 RecMII = %d, want 1", got)
	}
	// LFK 6: w = w*b[i] + v[i] — fmul(3) + fadd(1) = 4.
	if got := recMII("lfk06_linrec"); got != 4 {
		t.Errorf("lfk06 RecMII = %d, want 4", got)
	}
	// LFK 12: fully parallel.
	if got := recMII("lfk12_firstdiff"); got != 1 {
		t.Errorf("lfk12 RecMII = %d, want 1", got)
	}
	// LFK 24: running min through select — ALU(1) + fadd(1) = 2.
	if got := recMII("lfk24_argmin"); got != 2 {
		t.Errorf("lfk24 RecMII = %d, want 2", got)
	}
}

// TestKernelsScheduleOnEveryMachine runs every kernel through the full
// pipeline, verifier, and simulator on the paper's machines.
func TestKernelsScheduleOnEveryMachine(t *testing.T) {
	loops, err := Kernels()
	if err != nil {
		t.Fatal(err)
	}
	machines := []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedGP(4, 4, 2),
		machine.NewBusedFS(2, 2, 1),
		machine.NewGrid4(2),
	}
	for _, m := range machines {
		for _, l := range loops {
			out, err := pipeline.Run(l.Graph, m, pipeline.Options{
				Assign: assign.Options{Variant: assign.HeuristicIterative},
			})
			if err != nil {
				t.Errorf("%s on %s: %v", l.Name, m.Name, err)
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
				t.Errorf("%s on %s: %v", l.Name, m.Name, err)
				continue
			}
			alloc := regalloc.AllocateMVE(in, out.Schedule)
			if err := sim.Run(in, out.Schedule, alloc, 0); err != nil {
				t.Errorf("%s on %s: simulation: %v", l.Name, m.Name, err)
			}
		}
	}
}

// TestKernelsMatchUnified measures the paper's headline metric on the
// real kernels: nearly all should match the unified machine's II on
// the 2-cluster machine.
func TestKernelsMatchUnified(t *testing.T) {
	loops, err := Kernels()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewBusedGP(2, 2, 1)
	u := m.Unified()
	match := 0
	for i, l := range loops {
		g := l.Graph
		uo, err1 := pipeline.Run(g, u, pipeline.Options{})
		co, err2 := pipeline.Run(g, m, pipeline.Options{
			Assign: assign.Options{Variant: assign.HeuristicIterative},
		})
		if err1 != nil || err2 != nil {
			t.Fatalf("kernel %d: %v %v", i, err1, err2)
		}
		if co.II <= uo.II {
			match++
		}
	}
	if match < len(loops)-1 {
		t.Errorf("only %d/%d Livermore kernels match the unified II", match, len(loops))
	}
}
