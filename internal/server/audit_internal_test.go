package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clustersched"
)

// tamperedSchedule runs the real pipeline on the drawn session, then
// breaks the schedule it returns: every operation in cycle 0 violates
// the loop's dependences.
func tamperedSchedule(ctx context.Context, sess *clustersched.Session, g *clustersched.Graph) (*clustersched.Result, error) {
	res, err := sessionSchedule(ctx, sess, g)
	if err != nil {
		return nil, err
	}
	for i := range res.CycleOf {
		res.CycleOf[i] = 0
	}
	return res, nil
}

// TestAuditFailureIsNeverCached: a schedule that fails its audit is a
// coded 500 on every request, is counted on /statsz, and leaves neither
// a cache entry nor an alias behind.
func TestAuditFailureIsNeverCached(t *testing.T) {
	s := New(Config{})
	s.scheduleOne = tamperedSchedule
	ts := httptest.NewServer(s)
	defer ts.Close()
	body, err := json.Marshal(ScheduleRequest{DDG: fleetDotDDG, Machine: "gp:2:2:1"})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if derr != nil {
			t.Fatalf("try %d: decoding error reply: %v", i, derr)
		}
		if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("X-Cache") != "" {
			t.Fatalf("try %d: status %d X-Cache %q, want 500 and none", i, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if !strings.HasPrefix(er.Error, CodeAuditFailed+": ") {
			t.Errorf("try %d: error %q does not carry %s", i, er.Error, CodeAuditFailed)
		}
		if len(er.Diagnostics) == 0 || !strings.HasPrefix(er.Diagnostics[0].Code, "SCHED") {
			t.Errorf("try %d: reply carries diagnostics %v, want the audit's SCHED findings", i, er.Diagnostics)
		}
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.AuditFailures != 2 || st.Scheduled != 2 {
		t.Errorf("statsz audit_failures %d, scheduled %d; want 2, 2", st.AuditFailures, st.Scheduled)
	}
	if st.Cache.Entries != 0 || st.Cache.Aliases != 0 || st.Cache.Hits != 0 {
		t.Errorf("cache after two failed audits: %+v, want nothing stored or served", st.Cache)
	}
	// Both misses ran on the registry's session for the request's key.
	if want := (SessionStats{Built: 1, Reused: 1}); st.Sessions != want {
		t.Errorf("statsz sessions %+v, want %+v", st.Sessions, want)
	}
}
