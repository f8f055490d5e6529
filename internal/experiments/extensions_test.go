package experiments

import (
	"context"
	"strings"
	"testing"

	"clustersched/internal/livermore"
	"clustersched/internal/loopgen"
	"clustersched/internal/machine"
)

func TestExtensionsDefined(t *testing.T) {
	exts := Extensions()
	wantIDs := []string{"abl-incoming", "abl-evict", "abl-order", "abl-sched", "ring", "nonpipelined", "copylatency"}
	if len(exts) != len(wantIDs) {
		t.Fatalf("got %d extensions, want %d", len(exts), len(wantIDs))
	}
	for i, id := range wantIDs {
		if exts[i].ID != id {
			t.Errorf("extension %d = %q, want %q", i, exts[i].ID, id)
		}
		for _, row := range exts[i].Rows {
			if err := row.Machine.Validate(); err != nil {
				t.Errorf("%s row %q: %v", id, row.Label, err)
			}
		}
	}
	if _, ok := ByID("abl-incoming"); !ok {
		t.Error("ByID does not find extension experiments")
	}
}

func TestIncomingPredictionAblationShowsGap(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 2, Count: 150})
	res := Run(AblationIncomingPrediction(), loops, Options{})
	with := res.Rows[0].Hist.MatchPercent()
	without := res.Rows[1].Hist.MatchPercent()
	if with <= without {
		t.Errorf("incoming prediction should help: with=%.1f%% without=%.1f%%", with, without)
	}
}

func TestOrderingAblationShufflesAndRuns(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 4, Count: 80})
	res := RunOrderingAblation(loops, Options{})
	if res.Loops != 80 {
		t.Fatalf("Loops = %d", res.Loops)
	}
	swing := res.Rows[0]
	naive := res.Rows[1]
	// The swing order's measurable benefit is fewer copies (the match
	// rates are close): Section 4.1's second goal.
	if swing.AvgCopies >= naive.AvgCopies {
		t.Errorf("swing order should insert fewer copies: swing=%.2f naive=%.2f",
			swing.AvgCopies, naive.AvgCopies)
	}
}

func TestRingScalingDegradesWithSize(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 5, Count: 120})
	res := Run(RingScaling(), loops, Options{})
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	m4 := res.Rows[0].Hist.MatchPercent()
	m8 := res.Rows[2].Hist.MatchPercent()
	if m8 >= m4 {
		t.Errorf("8-ring (%.1f%%) should be harder than 4-ring (%.1f%%)", m8, m4)
	}
	if m8 < 70 {
		t.Errorf("8-ring match %.1f%% implausibly low", m8)
	}
}

func TestRegisterStudy(t *testing.T) {
	loops := loopgen.Suite(loopgen.Options{Seed: 7, Count: 60})
	rep := RegisterStudy(loops, Options{})
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.ScheduledLoops < 55 {
			t.Errorf("%s: only %d loops scheduled", row.Label, row.ScheduledLoops)
		}
		if row.AvgRegsStaged > row.AvgRegs+0.001 {
			t.Errorf("%s: stage scheduling increased registers %.1f -> %.1f",
				row.Label, row.AvgRegs, row.AvgRegsStaged)
		}
		if row.AvgMaxLive <= 0 || row.AvgMVEFactor < 1 {
			t.Errorf("%s: implausible stats %+v", row.Label, row)
		}
	}
	// Clustering must cap the largest single register file: the
	// 4-cluster machine's biggest file is smaller than the 16-wide
	// unified machine's single file.
	unified16 := rep.Rows[2]
	clustered4 := rep.Rows[3]
	if clustered4.AvgMaxCluster >= unified16.AvgMaxCluster {
		t.Errorf("clustering should shrink the largest register file: %.1f vs %.1f",
			clustered4.AvgMaxCluster, unified16.AvgMaxCluster)
	}
	report := rep.Report()
	for _, want := range []string{"MaxLive", "regs+SS", "largest file", "unified 16-wide GP"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestRowSchedulerOverride(t *testing.T) {
	cfg := AblationScheduler()
	loops := loopgen.Suite(loopgen.Options{Seed: 9, Count: 40})
	res := Run(cfg, loops, Options{})
	for _, row := range res.Rows {
		if row.Hist.Total() != 40 {
			t.Errorf("%s: total %d", row.Label, row.Hist.Total())
		}
	}
}

func TestRegisterStudyMachinesAreValid(t *testing.T) {
	// The study builds its own machines; sanity-check the equivalence
	// of widths between paired rows.
	if machine.NewBusedGP(2, 2, 1).TotalWidth() != machine.NewUnifiedGP(8).TotalWidth() {
		t.Error("2-cluster machine must pair with the 8-wide unified machine")
	}
	if machine.NewBusedGP(4, 4, 2).TotalWidth() != machine.NewUnifiedGP(16).TotalWidth() {
		t.Error("4-cluster machine must pair with the 16-wide unified machine")
	}
}

func TestLivermoreStudy(t *testing.T) {
	kernels, err := livermore.Kernels()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := LivermoreStudyContext(context.Background(), kernels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(kernels) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(kernels))
	}
	for _, row := range rep.Rows {
		if len(row.PerMachine) != len(rep.Machines) || len(row.OwnUnified) != len(rep.Machines) {
			t.Fatalf("%s: ragged row %+v", row.Name, row)
		}
		for i, ii := range row.PerMachine {
			if ii < row.OwnUnified[i] {
				t.Errorf("%s on %s: clustered II %d below its unified baseline %d",
					row.Name, rep.Machines[i].Name, ii, row.OwnUnified[i])
			}
		}
	}
	if !strings.Contains(rep.Report(), "lfk05_tridiag") {
		t.Error("report missing kernels")
	}
}
