package explore

import (
	"context"
	"strings"
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
)

// evaluate is EvaluateContext under context.Background().
func evaluate(m *machine.Config, loops []*ddg.Graph, workers int) Point {
	p, _ := EvaluateContext(context.Background(), m, loops, workers)
	return p
}

func TestEvaluateUnifiedMatchesItself(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 3, Count: 60})
	p := evaluate(machine.NewUnifiedGP(8), loops, 0)
	if p.Scheduled < 55 {
		t.Fatalf("scheduled only %d loops", p.Scheduled)
	}
	if p.MatchPct != 100 {
		t.Errorf("unified machine match = %.1f%%, want 100", p.MatchPct)
	}
	if p.AreaProxy <= 0 || p.DelayProxy <= 0 {
		t.Errorf("cost proxies not computed: %+v", p)
	}
}

func TestClusteringShrinksTheLargestFile(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 5, Count: 80})
	unified := evaluate(machine.NewUnifiedGP(16), loops, 0)
	clustered := evaluate(machine.NewBusedGP(4, 4, 2), loops, 0)

	if clustered.AvgRegsLargestFile >= unified.AvgRegsLargestFile {
		t.Errorf("clustered largest file %.1f regs >= unified %.1f",
			clustered.AvgRegsLargestFile, unified.AvgRegsLargestFile)
	}
	if clustered.PortsLargestFile >= unified.PortsLargestFile {
		t.Errorf("clustered file ports %d >= unified %d",
			clustered.PortsLargestFile, unified.PortsLargestFile)
	}
	if clustered.AreaProxy >= unified.AreaProxy {
		t.Errorf("clustered area %.0f >= unified %.0f (the paper's whole point)",
			clustered.AreaProxy, unified.AreaProxy)
	}
	if clustered.DelayProxy >= unified.DelayProxy {
		t.Errorf("clustered delay %.2f >= unified %.2f",
			clustered.DelayProxy, unified.DelayProxy)
	}
	// And the throughput price is small.
	if clustered.MatchPct < 90 {
		t.Errorf("clustered match %.1f%%, want > 90", clustered.MatchPct)
	}
}

func TestFilePorts(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1) // 4 FUs, 1 bus read, 1 bus write per cluster
	total, reads := filePorts(m, 0)
	// reads: 2*4 + 1 = 9; writes: 4 + 1 = 5; total 14.
	if reads != 9 || total != 14 {
		t.Errorf("filePorts = (%d, %d), want (14, 9)", total, reads)
	}
	u := machine.NewUnifiedGP(8) // no bus ports
	total, reads = filePorts(u, 0)
	if reads != 16 || total != 24 {
		t.Errorf("unified filePorts = (%d, %d), want (24, 16)", total, reads)
	}
}

func TestSweepAndReport(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 7, Count: 30})
	points := Sweep(DefaultDesigns()[:2], loops, 0)
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	rep := Report(points)
	for _, want := range []string{"design", "match%", "area", "gp-unified-8w", "gp-2c-2b-1p"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
