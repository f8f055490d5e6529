// Tests for the balancer against real in-process clusterd workers
// (httptest + server.New) plus controlled stubs for failure and tail
// scenarios. Ring ownership is recomputed in the tests with cachering
// directly, so "a request owned by the dead worker" is constructed
// deterministically instead of hoping the hash falls right. The
// multi-process kill-a-worker oracle check lives in
// internal/fleettest.
package balance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"clustersched/internal/cachering"
	"clustersched/internal/membership"
	"clustersched/internal/server"
)

// nsRE matches the wall-clock timing stats embedded in a schedule
// reply. They are the only non-deterministic bytes in a response, so
// cross-worker comparisons zero them; everything else must match
// exactly.
var nsRE = regexp.MustCompile(`"(mii|assign|sched)_ns":\d+`)

func normalizeTimings(b []byte) []byte {
	return nsRE.ReplaceAll(b, []byte(`"${1}_ns":0`))
}

const dotDDG = `loop dotproduct
node 0 load a[i]
node 1 load b[i]
node 2 fmul
node 3 fadd s
edge 0 2 0
edge 1 2 0
edge 2 3 0
edge 3 3 1
end
`

func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}))
	t.Cleanup(ts.Close)
	return ts
}

func newBalancer(t *testing.T, cfg Config) (*Balancer, *httptest.Server) {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb := httptest.NewServer(b)
	t.Cleanup(lb.Close)
	return b, lb
}

// scheduleVia posts one schedule request through url and returns the
// raw reply plus the X-Cache and X-Fleet-Worker headers.
func scheduleVia(t *testing.T, url string, req server.ScheduleRequest) (int, []byte, string, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("schedule via %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("X-Cache"), resp.Header.Get("X-Fleet-Worker")
}

// requestOwnedBy searches request names until one's cache key is
// owned by the wanted node on a ring over ids — ownership depends
// only on the membership set, so this mirrors the balancer's routing.
func requestOwnedBy(t *testing.T, ids []string, want string) server.ScheduleRequest {
	t.Helper()
	ring := cachering.New(0, ids, 0)
	for i := 0; i < 10000; i++ {
		req := server.ScheduleRequest{Name: fmt.Sprintf("probe-%d", i), DDG: dotDDG, Machine: "gp:2:2:1"}
		key, err := server.KeyForRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if owner, ok := ring.Owner(key); ok && owner == want {
			return req
		}
	}
	t.Fatal("no request found owned by the wanted worker")
	return server.ScheduleRequest{}
}

func TestScheduleRoutesToRingOwnerAndCaches(t *testing.T) {
	w1, w2, w3 := newWorker(t), newWorker(t), newWorker(t)
	b, lb := newBalancer(t, Config{Workers: []string{w1.URL, w2.URL, w3.URL}})

	req := server.ScheduleRequest{Name: "affinity", DDG: dotDDG, Machine: "gp:2:2:1"}
	status, cold, xcache, worker := scheduleVia(t, lb.URL, req)
	if status != http.StatusOK {
		t.Fatalf("cold status = %d: %s", status, cold)
	}
	if xcache != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", xcache)
	}
	for i := 0; i < 4; i++ {
		status, warm, xcache, again := scheduleVia(t, lb.URL, req)
		if status != http.StatusOK {
			t.Fatalf("warm status = %d", status)
		}
		if xcache != "hit" {
			t.Errorf("warm %d X-Cache = %q, want hit (routed to %s, cold went to %s)", i, xcache, again, worker)
		}
		if again != worker {
			t.Errorf("warm %d routed to %s, cold to %s: affinity broken", i, again, worker)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("warm reply differs from cold reply")
		}
	}
	stats := b.counters.Snapshot()
	if stats.RingRouted != 5 || stats.ChoiceRouted != 0 {
		t.Errorf("ring/choice = %d/%d, want 5/0", stats.RingRouted, stats.ChoiceRouted)
	}
}

func TestFailoverWhenRingOwnerIsDead(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // refuses connections from now on

	ids := []string{w1.URL, w2.URL, dead.URL}
	b, lb := newBalancer(t, Config{Workers: ids})

	req := requestOwnedBy(t, ids, dead.URL)
	status, body, _, worker := scheduleVia(t, lb.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if worker == dead.URL {
		t.Fatalf("reply attributed to the dead worker")
	}
	stats := b.counters.Snapshot()
	if stats.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", stats.Failovers)
	}
	if st, ok := b.members.State(dead.URL); !ok || st == membership.Alive {
		t.Errorf("dead worker still Alive in membership (state %v)", st)
	}
	// The rebuilt ring has remapped the arc: the same request now
	// routes straight to a survivor with no further failovers.
	before := b.counters.Snapshot().Failovers
	if status, _, _, _ := scheduleVia(t, lb.URL, req); status != http.StatusOK {
		t.Fatalf("post-rebalance status = %d", status)
	}
	if after := b.counters.Snapshot().Failovers; after != before {
		t.Errorf("post-rebalance request still failed over (%d -> %d)", before, after)
	}
}

func TestHedgeRescuesStalledWorker(t *testing.T) {
	fast := newWorker(t)
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server arms client-disconnect
		// detection (which fires r.Context()) only once the request
		// body is consumed.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // never answers; released when the hedge wins and cancels us
	}))
	t.Cleanup(stalled.Close)

	ids := []string{fast.URL, stalled.URL}
	b, lb := newBalancer(t, Config{
		Workers:       ids,
		HedgeBudget:   1.0,
		HedgeAfterMin: 10 * time.Millisecond,
	})

	req := requestOwnedBy(t, ids, stalled.URL)
	start := time.Now()
	status, body, _, worker := scheduleVia(t, lb.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if worker != fast.URL {
		t.Errorf("reply came from %s, want the fast worker", worker)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("hedged request took %v", elapsed)
	}
	stats := b.counters.Snapshot()
	if stats.Hedges < 1 || stats.HedgeWins < 1 {
		t.Errorf("hedges/wins = %d/%d, want >= 1 each", stats.Hedges, stats.HedgeWins)
	}
}

func TestBatchAndLintProxy(t *testing.T) {
	w := newWorker(t)
	b, lb := newBalancer(t, Config{Workers: []string{w.URL}})

	batch, _ := json.Marshal(server.BatchRequest{DDG: dotDDG, Machine: "gp:2:2:1"})
	resp, err := http.Post(lb.URL+"/v1/batch", "application/json", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("batch status = %d", resp.StatusCode)
	}

	lint, _ := json.Marshal(server.LintRequest{DDG: dotDDG, Machine: "gp:2:2:1"})
	resp, err = http.Post(lb.URL+"/v1/lint", "application/json", bytes.NewReader(lint))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("lint status = %d", resp.StatusCode)
	}
	if stats := b.counters.Snapshot(); stats.ChoiceRouted != 2 {
		t.Errorf("choice_routed = %d, want 2", stats.ChoiceRouted)
	}
}

func TestSchedulesMatchSingleNodeOracle(t *testing.T) {
	oracle := newWorker(t)
	w1, w2, w3 := newWorker(t), newWorker(t), newWorker(t)
	_, lb := newBalancer(t, Config{Workers: []string{w1.URL, w2.URL, w3.URL}})

	for i := 0; i < 6; i++ {
		req := server.ScheduleRequest{Name: fmt.Sprintf("oracle-%d", i), DDG: dotDDG, Machine: "gp:4:2:2"}
		_, fleet, _, _ := scheduleVia(t, lb.URL, req)
		_, single, _, _ := scheduleVia(t, oracle.URL, req)
		if !bytes.Equal(normalizeTimings(fleet), normalizeTimings(single)) {
			t.Errorf("request %d: fleet reply differs from single-node oracle\nfleet:  %s\nsingle: %s", i, fleet, single)
		}
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	b, lb := newBalancer(t, Config{Workers: []string{w1.URL, w2.URL}, HeartbeatEvery: 50 * time.Millisecond})

	resp, err := http.Get(lb.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// One heartbeat round populates the reported depths.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.probeAll(ctx)

	resp, err = http.Get(lb.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatszResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stats.Workers) != 2 || len(stats.RingNodes) != 2 {
		t.Fatalf("statsz workers/ring = %d/%d, want 2/2: %+v", len(stats.Workers), len(stats.RingNodes), stats)
	}
	if stats.Fleet.HeartbeatProbes < 2 {
		t.Errorf("heartbeat_probes = %d, want >= 2", stats.Fleet.HeartbeatProbes)
	}
	if stats.RingEpoch != stats.MembershipEpoch {
		t.Errorf("ring epoch %d != membership epoch %d", stats.RingEpoch, stats.MembershipEpoch)
	}

	// All workers down: the next probe demotes them and healthz trips.
	w1.Close()
	w2.Close()
	b.probeAll(ctx)
	resp, err = http.Get(lb.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with all workers down = %d, want 503", resp.StatusCode)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no workers succeeded")
	}
	if _, err := New(Config{Workers: []string{"http://a", "http://a"}}); err == nil {
		t.Error("New with duplicate workers succeeded")
	}
}
