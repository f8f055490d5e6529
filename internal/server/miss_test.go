package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clustersched/internal/ddgio"
	"clustersched/internal/loopgen"
	"clustersched/internal/server"
)

// serveBody runs one /v1/schedule request with body through h in
// process.
func serveBody(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
	return rec
}

// suiteBodies are client-encoded /v1/schedule bodies of every step-th
// seed-1 suite loop on gp:2:2:1.
func suiteBodies(tb testing.TB, step int) [][]byte {
	suite := loopgen.Suite(loopgen.Options{Seed: 1})
	var bodies [][]byte
	for i := 0; i < len(suite); i += step {
		var b strings.Builder
		if err := ddgio.Write(&b, fmt.Sprintf("loop%d", i), suite[i]); err != nil {
			tb.Fatal(err)
		}
		raw, err := json.Marshal(server.ScheduleRequest{DDG: b.String(), Machine: "gp:2:2:1"})
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, raw)
	}
	return bodies
}

// missAllocBound is the count TestScheduleMissAllocs measures: the
// handler's allocations for one /v1/schedule miss of a 15-node suite
// loop on a warm session, the schedule, its audit and kernel text
// included. Before the miss path was rebuilt it was 160.
const missAllocBound = 73

// TestScheduleMissAllocs counts the handler's allocations per
// /v1/schedule miss: the same 15-node loop under a new name each time,
// so every request decodes, parses, keys, schedules, audits and
// encodes, on a session the first request warmed.
func TestScheduleMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs = 50
	h := server.New(server.Config{})
	var loop strings.Builder
	if err := ddgio.Write(&loop, "l", loopgen.Suite(loopgen.Options{Seed: 1})[7]); err != nil {
		t.Fatal(err)
	}
	reqs := make([]*http.Request, runs+2)
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		raw, err := json.Marshal(server.ScheduleRequest{DDG: loop.String(), Machine: "gp:2:2:1", Name: fmt.Sprintf("miss-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(raw))
		recs[i] = httptest.NewRecorder()
	}
	h.ServeHTTP(recs[runs+1], reqs[runs+1])
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(recs[i], reqs[i])
		i++
	})
	for i, rec := range recs {
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
			t.Fatalf("request %d: %d X-Cache %q, want a 200 miss: %s", i, rec.Code, rec.Header().Get("X-Cache"), rec.Body)
		}
	}
	t.Logf("%.1f allocations per miss", allocs)
	if allocs > missAllocBound {
		t.Errorf("a /v1/schedule miss made %.1f allocations, want <= %d", allocs, missAllocBound)
	}
}

// FuzzServerSchedule feeds raw bodies to /v1/schedule in process.
// Every body ends in a coded 400 or 422 (an ErrorResponse with its
// error), or a 200 whose reply decodes, carries no diagnostics, and
// comes back byte-identical when the body is sent again. The oversized
// body is a fixed case, checked by TestAliasRejectedBodies rather than
// mutated here.
func FuzzServerSchedule(f *testing.F) {
	for _, raw := range suiteBodies(f, 331) {
		f.Add(raw)
	}
	for _, req := range []server.ScheduleRequest{
		// TestRequestErrors.
		{DDG: dotDDG},
		{DDG: dotDDG, Machine: "warp:9"},
		{DDG: dotDDG, Machine: "gp:2:2:1", Variant: "psychic"},
		{Machine: "gp:2:2:1"},
		{DDG: dotDDG, Source: "loop d { s = s + a[i] }", Machine: "gp:2:2:1"},
		{DDG: threeLoopDDG, Machine: "gp:2:2:1"},
		{DDG: "loop z\nnode 0 alu\nedge 0 0 0\nend\n", Machine: "gp:2:2:1"},
		// TestAliasRejectedBodies.
		{DDG: dotDDG + dotDDG, Machine: "gp:2:2:1"},
		{Source: "loop d { s = s + a[i] }", Machine: "fs:4:4:2", Scheduler: "sms", BudgetPerNode: 3, MaxIISlack: 2},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"machine":"gp:2:2:1","ddg":"x","machnie":"oops"}`))
	h := server.New(server.Config{CacheBytes: 8 << 20})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveBody(h, body)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			var e server.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%d reply %q is not a coded error (%v)", rec.Code, rec.Body, err)
			}
		case http.StatusOK:
			var resp server.ScheduleResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 reply does not decode: %v", err)
			}
			if len(resp.Diagnostics) != 0 {
				t.Fatalf("200 reply carries diagnostics %v", resp.Diagnostics)
			}
			again := serveBody(h, body)
			if again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
				t.Fatalf("repeat: %d %q, first reply %q", again.Code, again.Body, rec.Body)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
