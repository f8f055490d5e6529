package verify

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/diag"
	"clustersched/internal/machine"
	"clustersched/internal/sched"
)

// doubleBroken builds a schedule with two independent defects: a
// violated dependence (consumer scheduled with its producer) and a
// resource conflict (six ALU ops in a four-wide modulo slot).
func doubleBroken() (sched.Input, *sched.Schedule) {
	g := ddg.NewGraph(6, 1)
	for i := 0; i < 6; i++ {
		g.AddNode(ddg.OpALU, "")
	}
	g.AddEdge(0, 1, 0)
	in := sched.Input{Graph: g, Machine: machine.NewUnifiedGP(4), II: 1}
	s := &sched.Schedule{II: 1, CycleOf: []int{0, 0, 0, 0, 0, 0}}
	return in, s
}

func TestAuditEnumeratesAllViolations(t *testing.T) {
	in, s := doubleBroken()
	diags := Audit(in, s)
	if len(diags) < 2 {
		t.Fatalf("Audit found %d violations, want at least 2: %v", len(diags), diags)
	}
	distinct := map[string]bool{}
	for _, d := range diags {
		if d.Severity != diag.Error {
			t.Errorf("audit finding %s has severity %v, want error", d.Code, d.Severity)
		}
		distinct[d.Code] = true
	}
	if !distinct[CodeDependence] {
		t.Errorf("missing %s (dependence violation) in %v", CodeDependence, diags)
	}
	if !distinct[CodeOversubscribed] {
		t.Errorf("missing %s (resource conflict) in %v", CodeOversubscribed, diags)
	}
}

func TestAuditCountsEveryConflict(t *testing.T) {
	// Six ops into four slots leaves two that cannot be placed; the
	// audit reports each one, not just the first.
	in, s := doubleBroken()
	over := 0
	for _, d := range Audit(in, s) {
		if d.Code == CodeOversubscribed {
			over++
		}
	}
	if over != 2 {
		t.Errorf("Audit reported %d oversubscriptions, want 2", over)
	}
}

func TestAuditCleanScheduleIsEmpty(t *testing.T) {
	m := machine.NewBusedGP(2, 2, 1)
	in, s := scheduledLoop(t, 7, m)
	if diags := Audit(in, s); len(diags) != 0 {
		t.Errorf("valid schedule audited dirty: %v", diags)
	}
}

func TestScheduleWrapsFirstAuditFinding(t *testing.T) {
	in, s := doubleBroken()
	err := Schedule(in, s)
	if err == nil {
		t.Fatal("Schedule accepted a broken schedule")
	}
	first := Audit(in, s)[0]
	if !strings.Contains(err.Error(), first.Message) {
		t.Errorf("Schedule error %q does not carry the first audit finding %q", err, first.Message)
	}
	if !strings.HasPrefix(err.Error(), "verify: ") {
		t.Errorf("Schedule error %q lost its package prefix", err)
	}
}

func TestAuditLengthMismatchShortCircuits(t *testing.T) {
	in, _ := doubleBroken()
	s := &sched.Schedule{II: 1, CycleOf: []int{0}}
	diags := Audit(in, s)
	if len(diags) != 1 || diags[0].Code != CodeLengthMismatch {
		t.Errorf("length mismatch audit = %v, want single %s", diags, CodeLengthMismatch)
	}
}

func hasCode(diags []diag.Diagnostic, code string) bool {
	for _, d := range diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

// TestPooledAuditMatchesFreshTable requires the pooled Audit to report
// exactly what a replay into a new table reports: on valid schedules,
// on tampered (oversubscribed) ones, and after the pooled table has
// served another machine and a larger II. The machines interleave, so
// the pool keeps handing out tables of the wrong machine too.
func TestPooledAuditMatchesFreshTable(t *testing.T) {
	machines := []*machine.Config{
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedFS(4, 4, 2),
		machine.NewGrid4(2),
	}
	var pool sync.Pool
	check := func(what string, in sched.Input, s *sched.Schedule) []diag.Diagnostic {
		t.Helper()
		got, want := audit(in, s, &pool), audit(in, s, nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s on %s: pooled audit differs from a new table's:\n got %v\nwant %v", what, in.Machine.Name, got, want)
		}
		return got
	}
	// tamper crowds every node into the first node's cycle.
	tamper := func(s *sched.Schedule, ii int) *sched.Schedule {
		bad := &sched.Schedule{II: ii, CycleOf: make([]int, len(s.CycleOf))}
		for n := range bad.CycleOf {
			bad.CycleOf[n] = s.CycleOf[0]
		}
		return bad
	}
	const seeds = 12
	oversubscribed := 0
	for seed := int64(0); seed < seeds; seed++ {
		for _, m := range machines {
			in, s := scheduledLoop(t, seed, m)
			if d := check("valid", in, s); len(d) != 0 {
				t.Errorf("seed %d on %s: valid schedule audited dirty: %v", seed, m.Name, d)
			}
			// Loops small enough to fit one slot only break dependences.
			if hasCode(check("tampered", in, tamper(s, in.II)), CodeOversubscribed) {
				oversubscribed++
			}
			// The pooled table now serves a larger II on the same machine
			// (and then a smaller one again on the next iteration).
			wide := in
			wide.II = in.II + 9
			check("tampered at a larger II", wide, tamper(s, wide.II))
			check("valid at a larger II", wide, &sched.Schedule{II: wide.II, CycleOf: s.CycleOf})
		}
	}
	if oversubscribed < seeds*len(machines)/2 {
		t.Errorf("only %d of %d tampered schedules oversubscribed; the resource replay is barely exercised",
			oversubscribed, seeds*len(machines))
	}
	// A table left in the pool by another machine at a large II must
	// not leak into the next audit.
	in, s := scheduledLoop(t, 5, machines[0])
	other, os := scheduledLoop(t, 5, machines[2])
	other.II += 20
	check("tampered", other, tamper(os, other.II))
	if d := check("valid", in, s); len(d) != 0 {
		t.Errorf("valid schedule audited dirty after another machine's table: %v", d)
	}
}
