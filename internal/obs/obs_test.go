package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if tr.Canceled() {
		t.Error("nil trace reports canceled")
	}
	if tr.Err() != nil {
		t.Error("nil trace reports an error")
	}
	// Every hook must be a no-op on a nil receiver.
	start := tr.BeginPhase(PhaseAssign, 3)
	if !start.IsZero() {
		t.Error("nil trace BeginPhase returned a non-zero time")
	}
	tr.EndPhase(PhaseAssign, 3, start, true)
	tr.IICandidate(3)
	tr.AssignCommit(3, 0, 1, false)
	tr.Eviction(3, 0, 1)
	tr.PCRReject(3, 0, 1)
	tr.BudgetExhausted(PhaseAssign, 3, 0)
	tr.SchedDisplace(3, 0, 1)
}

func TestNewReturnsNilWhenNothingToDo(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var kept Trace
	kept.Stats.Evictions = 7
	for _, c := range []struct {
		name    string
		ctx     context.Context
		o       Observer
		stats   bool
		wantNil bool
	}{
		{"background ctx, no observer, no stats", context.Background(), nil, false, true},
		{"nil ctx", nil, nil, false, true},
		{"stats request", context.Background(), nil, true, false},
		{"observer", context.Background(), ObserverFunc(func(Event) {}), false, false},
		{"cancelable ctx", ctx, nil, false, false},
	} {
		// Renew re-arms a kept Trace exactly when there is work to do.
		tr := kept.Renew(c.ctx, c.o, c.stats)
		if (tr == nil) != c.wantNil || tr != nil && (tr != &kept || tr.Stats != (Stats{})) {
			t.Errorf("Renew, %s: got %p with %+v, want nil %v or the kept trace, zeroed", c.name, tr, kept.Stats, c.wantNil)
		}
		kept.Stats.Evictions = 7
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := new(Trace).Renew(ctx, nil, false)
	if tr.Canceled() {
		t.Fatal("canceled before cancel")
	}
	cancel()
	if !tr.Canceled() {
		t.Fatal("not canceled after cancel")
	}
	if tr.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", tr.Err())
	}
}

func TestStatsCounting(t *testing.T) {
	tr := new(Trace).Renew(context.Background(), nil, true)
	tr.IICandidate(2)
	tr.IICandidate(3)
	tr.AssignCommit(3, 0, 0, false)
	tr.AssignCommit(3, 1, 1, true)
	tr.Eviction(3, 1, 0)
	tr.PCRReject(3, 2, 0)
	tr.BudgetExhausted(PhaseAssign, 3, 1)
	tr.BudgetExhausted(PhaseSched, 3, -1)
	tr.SchedDisplace(3, 2, 1)
	s0 := tr.BeginPhase(PhaseAssign, 3)
	tr.EndPhase(PhaseAssign, 3, s0, false)
	s1 := tr.BeginPhase(PhaseSched, 3)
	tr.EndPhase(PhaseSched, 3, s1, true)

	s := tr.Stats
	want := Stats{
		IICandidates: 2, AssignCommits: 2, ForcePlacements: 1, Evictions: 1,
		PCRRejections: 1, AssignBudgetExhausted: 1, SchedBudgetExhausted: 1,
		AssignRejects: 1, SchedDisplacements: 1,
	}
	// Durations are non-deterministic; compare counters only.
	got := s
	got.MIITime, got.AssignTime, got.SchedTime = 0, 0, 0
	if got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	if s.AssignTime <= 0 || s.SchedTime <= 0 {
		t.Errorf("phase durations not recorded: %+v", s)
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{IICandidates: 1, Evictions: 2, SchedDisplacements: 3, AssignTime: time.Millisecond}
	b := Stats{IICandidates: 4, Evictions: 5, SchedDisplacements: 6, AssignTime: time.Second}
	a.Add(b)
	if a.IICandidates != 5 || a.Evictions != 7 || a.SchedDisplacements != 9 {
		t.Errorf("Add: %+v", a)
	}
	if a.AssignTime != time.Second+time.Millisecond {
		t.Errorf("Add durations: %v", a.AssignTime)
	}
	str := a.String()
	for _, want := range []string{"ii_candidates=5", "evictions=7", "displacements=9"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() missing %q: %s", want, str)
		}
	}
}

// collector records the events a trace emits.
type collector struct{ events []Event }

func (c *collector) Event(e Event) { c.events = append(c.events, e) }

func (c *collector) count(k EventKind) int {
	n := 0
	for _, e := range c.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestObserverReceivesEvents(t *testing.T) {
	var c collector
	tr := new(Trace).Renew(context.Background(), &c, false)
	tr.IICandidate(4)
	tr.AssignCommit(4, 7, 1, false)
	tr.AssignCommit(4, 8, 0, true)
	tr.SchedDisplace(4, 7, 8)

	if got := c.count(KindIICandidate); got != 1 {
		t.Errorf("ii candidates = %d", got)
	}
	if got := c.count(KindAssignCommit); got != 1 {
		t.Errorf("commits = %d", got)
	}
	if got := c.count(KindForcePlace); got != 1 {
		t.Errorf("forced = %d", got)
	}
	events := c.events
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	if e := events[1]; e.Node != 7 || e.Cluster != 1 || e.Victim != -1 {
		t.Errorf("commit event = %+v", e)
	}
	if e := events[3]; e.Node != 7 || e.Victim != 8 {
		t.Errorf("displace event = %+v", e)
	}
}

func TestObserverFunc(t *testing.T) {
	n := 0
	tr := new(Trace).Renew(context.Background(), ObserverFunc(func(Event) { n++ }), false)
	tr.IICandidate(1)
	tr.Eviction(1, 0, 1)
	if n != 2 {
		t.Errorf("ObserverFunc saw %d events, want 2", n)
	}
}

func TestJSONObserver(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSON(&buf)
	tr := new(Trace).Renew(context.Background(), j, false)
	start := tr.BeginPhase(PhaseAssign, 2)
	tr.AssignCommit(2, 0, 1, false)
	tr.EndPhase(PhaseAssign, 2, start, true)
	if err := j.Err(); err != nil {
		t.Fatalf("JSON observer error: %v", err)
	}

	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d JSON lines, want 3", len(lines))
	}
	if lines[0]["kind"] != "phase_begin" || lines[0]["phase"] != "assign" {
		t.Errorf("line 0 = %v", lines[0])
	}
	if lines[1]["kind"] != "assign_commit" || lines[1]["node"] != float64(0) || lines[1]["cluster"] != float64(1) {
		t.Errorf("line 1 = %v", lines[1])
	}
	if lines[2]["kind"] != "phase_end" || lines[2]["ok"] != true {
		t.Errorf("line 2 = %v", lines[2])
	}
}

// failingWriter accepts n writes and fails every one after.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestJSONObserverErrIsSticky checks that a failed write is kept and
// stops the stream: one good line, then the error, then no more writes.
func TestJSONObserverErrIsSticky(t *testing.T) {
	w := &failingWriter{n: 1}
	j := NewJSON(w)
	for i := 0; i < 3; i++ {
		j.Event(Event{Kind: KindAssignCommit, Node: i})
	}
	if err := j.Err(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Err = %v, want the write error", err)
	}
}

// TestCreateJSON writes a trace file through CreateJSON and checks that
// finish reports a clean stream and leaves every line on disk, and that
// a missing directory fails at creation.
func TestCreateJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	j, finish, err := CreateJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Event(Event{Kind: KindAssignCommit})
	j.Event(Event{Kind: KindAssignCommit})
	if err := finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Errorf("trace file has %d lines, want 2", n)
	}
	if _, _, err := CreateJSON(filepath.Join(t.TempDir(), "missing", "trace.json")); err == nil {
		t.Error("CreateJSON in a missing directory succeeded")
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "EventKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(EventKind(200).String(), "EventKind(") {
		t.Error("unknown kind should fall back to numeric form")
	}
}

// BenchmarkTraceOverhead quantifies the disabled fast path: a nil
// *Trace hook must cost a branch, nothing more.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var tr *Trace
		for i := 0; i < b.N; i++ {
			tr.AssignCommit(2, 1, 0, false)
			tr.SchedDisplace(2, 1, 0)
		}
	})
	b.Run("stats", func(b *testing.B) {
		tr := new(Trace).Renew(context.Background(), nil, true)
		for i := 0; i < b.N; i++ {
			tr.AssignCommit(2, 1, 0, false)
			tr.SchedDisplace(2, 1, 0)
		}
	})
}
