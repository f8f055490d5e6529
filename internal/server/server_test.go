// End-to-end tests for the scheduling daemon: the full HTTP surface
// driven through internal/client, cache effectiveness and
// byte-identical replies, singleflight coalescing, 429 backpressure,
// client-disconnect cancellation (asserted on the obs trace), and
// graceful drain.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersched"
	"clustersched/internal/client"
	"clustersched/internal/compile"
	"clustersched/internal/ddgio"
	"clustersched/internal/loopgen"
	"clustersched/internal/obs"
	"clustersched/internal/server"
)

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

const threeLoopDDG = dotDDG + `loop chain
node 0 load x[i]
node 1 alu
node 2 store y[i]
edge 0 1 0
edge 1 2 0
end
loop recur
node 0 fadd acc
node 1 fmul
edge 0 1 0
edge 1 0 1
end
`

// bigLoopDDG is a heavily unrolled dot product: large enough that one
// pipeline run dominates the HTTP round trip, so the cold/cached
// benchmark ratio measures the cache, not connection overhead.
func bigLoopDDG(tb testing.TB) string {
	g := clustersched.NewGraph()
	a := g.AddNode(clustersched.OpLoad, "a[i]")
	b := g.AddNode(clustersched.OpLoad, "b[i]")
	m := g.AddNode(clustersched.OpFMul, "")
	s := g.AddNode(clustersched.OpFAdd, "s")
	g.AddEdge(a, m, 0)
	g.AddEdge(b, m, 0)
	g.AddEdge(m, s, 0)
	g.AddEdge(s, s, 1)
	big := g.Unroll(16)
	var buf bytes.Buffer
	if err := ddgio.Write(&buf, "big", big); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

func newTestServer(tb testing.TB, cfg server.Config) (*client.Client, *httptest.Server) {
	ts := httptest.NewServer(server.New(cfg))
	tb.Cleanup(ts.Close)
	return client.New(ts.URL, ts.Client()), ts
}

func TestScheduleEndToEndAndCacheByteIdentical(t *testing.T) {
	c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	req := server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1"}
	cold, xcache, err := c.ScheduleRaw(ctx, req)
	if err != nil {
		t.Fatalf("cold schedule: %v", err)
	}
	if xcache != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", xcache)
	}
	warm, xcache, err := c.ScheduleRaw(ctx, req)
	if err != nil {
		t.Fatalf("warm schedule: %v", err)
	}
	if xcache != "hit" {
		t.Errorf("warm X-Cache = %q, want hit", xcache)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cached response is not byte-identical to the cold one:\ncold: %s\nwarm: %s", cold, warm)
	}

	var resp server.ScheduleResponse
	if err := json.Unmarshal(warm, &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.Name != "dotproduct" || resp.Machine != "gp:2:2:1" {
		t.Errorf("identity = %q on %q", resp.Name, resp.Machine)
	}
	if resp.II < resp.MII || resp.MII < 1 {
		t.Errorf("II=%d MII=%d out of order", resp.II, resp.MII)
	}
	if resp.Kernel == "" || resp.Stages < 1 {
		t.Errorf("kernel/stages missing: stages=%d", resp.Stages)
	}
	if len(resp.ClusterOf) != len(resp.CycleOf) || len(resp.ClusterOf) < 4 {
		t.Errorf("annotation tables %d/%d entries", len(resp.ClusterOf), len(resp.CycleOf))
	}
	if len(resp.Diagnostics) != 0 {
		t.Errorf("valid schedule audited %d findings: %v", len(resp.Diagnostics), resp.Diagnostics)
	}
	if resp.Stats.IICandidates < 1 {
		t.Errorf("stats empty: %+v", resp.Stats)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss / 1 entry", st.Cache)
	}
	if st.Scheduled != 1 {
		t.Errorf("scheduled = %d, want 1 (second request must not re-run the pipeline)", st.Scheduled)
	}
	if st.Requests < 2 {
		t.Errorf("requests = %d, want >= 2", st.Requests)
	}
	if st.Sched.IICandidates != resp.Stats.IICandidates {
		t.Errorf("aggregated sched stats %d candidates, want %d", st.Sched.IICandidates, resp.Stats.IICandidates)
	}
}

// TestScheduleBySource drives the loop-language path and checks that
// differently spelled but identical requests share one cache entry
// only when their canonical content matches.
func TestScheduleBySource(t *testing.T) {
	c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()

	resp, cached, err := c.Schedule(ctx, server.ScheduleRequest{
		Source:  "loop dot { s = s + a[i]*b[i] }",
		Machine: "gp:2:2:1",
	})
	if err != nil {
		t.Fatalf("schedule from source: %v", err)
	}
	if cached {
		t.Error("first request reported cached")
	}
	if resp.Name != "dot" || resp.II < 1 {
		t.Errorf("resp = %+v", resp)
	}

	// Same source on a different machine must be a different entry.
	_, cached, err = c.Schedule(ctx, server.ScheduleRequest{
		Source:  "loop dot { s = s + a[i]*b[i] }",
		Machine: "gp:4:4:2",
	})
	if err != nil {
		t.Fatalf("schedule on wider machine: %v", err)
	}
	if cached {
		t.Error("different machine served from cache")
	}
}

func TestBatchFanOutAndCache(t *testing.T) {
	c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()

	req := server.BatchRequest{DDG: threeLoopDDG, Machine: "gp:2:2:1"}
	cold, err := c.Batch(ctx, req)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(cold.Items) != 3 {
		t.Fatalf("%d items, want 3", len(cold.Items))
	}
	names := []string{"dotproduct", "chain", "recur"}
	for i, item := range cold.Items {
		if item.Name != names[i] {
			t.Errorf("item %d name %q, want %q (input order must be preserved)", i, item.Name, names[i])
		}
		if item.Error != "" {
			t.Errorf("item %d failed: %s", i, item.Error)
			continue
		}
		var r server.ScheduleResponse
		if err := json.Unmarshal(item.Result, &r); err != nil {
			t.Errorf("item %d result not a ScheduleResponse: %v", i, err)
		} else if r.II < 1 {
			t.Errorf("item %d II = %d", i, r.II)
		}
	}

	warm, err := c.Batch(ctx, req)
	if err != nil {
		t.Fatalf("warm batch: %v", err)
	}
	if warm.CacheHits != 3 {
		t.Errorf("warm batch cache hits = %d, want 3", warm.CacheHits)
	}
	for i := range warm.Items {
		if !warm.Items[i].Cached {
			t.Errorf("warm item %d not served from cache", i)
		}
		if !bytes.Equal(warm.Items[i].Result, cold.Items[i].Result) {
			t.Errorf("warm item %d differs from cold result", i)
		}
	}

	// The single-loop endpoint must share the batch's cache entries.
	_, xcache, err := c.ScheduleRaw(ctx, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1"})
	if err != nil {
		t.Fatalf("schedule after batch: %v", err)
	}
	if xcache != "hit" {
		t.Errorf("schedule after batch X-Cache = %q, want hit (shared entries)", xcache)
	}
}

// TestBatchRepeatSourceServedFromCache: a repeated /v1/batch of the
// same loop source is served entirely from the cache. Several loops of
// this corpus have memory dependences on more than one array; if the
// frontend emitted those edges in varying order, their cache keys
// would change between compiles and the repeat would miss.
func TestBatchRepeatSourceServedFromCache(t *testing.T) {
	c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()
	req := server.BatchRequest{Source: loopgen.SourceCorpus(compile.CorpusSeed, 96), Machine: "gp:2:2:1"}
	cold, err := c.Batch(ctx, req)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	warm, err := c.Batch(ctx, req)
	if err != nil {
		t.Fatalf("repeat batch: %v", err)
	}
	if len(warm.Items) != 96 || warm.CacheHits != len(warm.Items) {
		t.Errorf("repeat batch: %d cache hits of %d items, want all 96", warm.CacheHits, len(warm.Items))
	}
	for i := range warm.Items {
		if !warm.Items[i].Cached {
			t.Errorf("repeat item %d (%s) missed the cache", i, warm.Items[i].Name)
		}
		if !bytes.Equal(warm.Items[i].Result, cold.Items[i].Result) {
			t.Errorf("repeat item %d (%s) differs from the first reply", i, warm.Items[i].Name)
		}
	}
}

// TestCompileEndpoint drives the whole-translation-unit endpoint:
// full kernels in input order, per-loop cache entries shared across
// overlapping translation units, and byte-identical cached replies.
func TestCompileEndpoint(t *testing.T) {
	c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()

	tu := "loop dot { s = s + a[i]*b[i] }\nloop ax { y[i] = 2*x[i] + y[i] }\n"
	req := server.CompileRequest{Source: tu, Machine: "gp:2:2:1", StageSched: true, Validate: true}
	cold, err := c.Compile(ctx, req)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(cold.Items) != 2 || cold.Scheduled != 2 || cold.Failed != 0 {
		t.Fatalf("cold compile: %d items, scheduled %d, failed %d", len(cold.Items), cold.Scheduled, cold.Failed)
	}
	names := []string{"dot", "ax"}
	for i, item := range cold.Items {
		if item.Name != names[i] {
			t.Errorf("item %d name %q, want %q (input order)", i, item.Name, names[i])
		}
		var r server.CompileResult
		if err := json.Unmarshal(item.Result, &r); err != nil {
			t.Fatalf("item %d result: %v", i, err)
		}
		if r.II < r.MII || r.MII < 1 || r.Kernel == "" || r.Factor < 1 || len(r.RegsPerCluster) != 2 {
			t.Errorf("item %d incomplete: %+v", i, r)
		}
	}

	// The same unit again: every loop from the cache, byte-identical.
	warm, err := c.Compile(ctx, req)
	if err != nil {
		t.Fatalf("warm compile: %v", err)
	}
	if warm.CacheHits != 2 {
		t.Errorf("warm cache hits = %d, want 2", warm.CacheHits)
	}
	for i := range warm.Items {
		if !warm.Items[i].Cached {
			t.Errorf("warm item %d not cached", i)
		}
		if !bytes.Equal(warm.Items[i].Result, cold.Items[i].Result) {
			t.Errorf("warm item %d differs from cold result", i)
		}
	}

	// An overlapping unit reuses the shared loop's entry and compiles
	// only the new loop.
	overlap := server.CompileRequest{
		Source:     "loop dot { s = s + a[i]*b[i] }\nloop sum { t = t + a[i] }\n",
		Machine:    "gp:2:2:1",
		StageSched: true,
		Validate:   true,
	}
	mixed, err := c.Compile(ctx, overlap)
	if err != nil {
		t.Fatalf("overlapping compile: %v", err)
	}
	if mixed.CacheHits != 1 || !mixed.Items[0].Cached || mixed.Items[1].Cached {
		t.Errorf("overlap caching: hits=%d cached=%v/%v, want exactly the shared loop",
			mixed.CacheHits, mixed.Items[0].Cached, mixed.Items[1].Cached)
	}
	if !bytes.Equal(mixed.Items[0].Result, cold.Items[0].Result) {
		t.Error("shared loop's cached body differs across translation units")
	}

	// Different compile flags are different cache identities.
	plain, err := c.Compile(ctx, server.CompileRequest{Source: tu, Machine: "gp:2:2:1"})
	if err != nil {
		t.Fatalf("plain compile: %v", err)
	}
	if plain.CacheHits != 0 {
		t.Errorf("different compile flags hit the cache %d times", plain.CacheHits)
	}

	// Malformed source fails the unit up front, like any compiler.
	var apiErr *client.APIError
	if _, err := c.Compile(ctx, server.CompileRequest{Source: "loop bad {", Machine: "gp:2:2:1"}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Errorf("malformed source returned %v, want 422", err)
	}
}

func TestLintEndpoint(t *testing.T) {
	c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()

	clean, err := c.Lint(ctx, server.LintRequest{Source: "loop d { s = s + a[i]*b[i] }", Machine: "gp:2:2:1"})
	if err != nil {
		t.Fatalf("lint clean: %v", err)
	}
	if clean.Errors != 0 {
		t.Errorf("clean input reported %d errors: %v", clean.Errors, clean.Diagnostics)
	}

	// A zero-distance self-dependence is a classic DDG005.
	broken, err := c.Lint(ctx, server.LintRequest{DDG: "loop bad\nnode 0 alu\nedge 0 0 0\nend\n"})
	if err != nil {
		t.Fatalf("lint broken: %v", err)
	}
	if broken.Errors == 0 {
		t.Fatal("broken DDG linted clean")
	}
	found := false
	for _, d := range broken.Diagnostics {
		if d.Code == "DDG005" {
			found = true
		}
	}
	if !found {
		t.Errorf("no DDG005 in %v", broken.Diagnostics)
	}
}

func TestRequestErrors(t *testing.T) {
	c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()

	cases := []struct {
		name   string
		req    server.ScheduleRequest
		status int
	}{
		{"no machine", server.ScheduleRequest{DDG: dotDDG}, http.StatusBadRequest},
		{"bad machine", server.ScheduleRequest{DDG: dotDDG, Machine: "warp:9"}, http.StatusBadRequest},
		{"bad variant", server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1", Variant: "psychic"}, http.StatusBadRequest},
		{"no loop", server.ScheduleRequest{Machine: "gp:2:2:1"}, http.StatusUnprocessableEntity},
		{"both payloads", server.ScheduleRequest{DDG: dotDDG, Source: "loop d { s = s + a[i] }", Machine: "gp:2:2:1"}, http.StatusUnprocessableEntity},
		{"multi loop", server.ScheduleRequest{DDG: threeLoopDDG, Machine: "gp:2:2:1"}, http.StatusUnprocessableEntity},
		{"invalid ddg", server.ScheduleRequest{DDG: "loop z\nnode 0 alu\nedge 0 0 0\nend\n", Machine: "gp:2:2:1"}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		_, _, err := c.Schedule(ctx, tc.req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Errorf("%s: err = %v, want APIError", tc.name, err)
			continue
		}
		if apiErr.Status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, apiErr.Status, tc.status, apiErr.ErrorResponse.Error)
		}
	}

	// Unknown fields are rejected, so typos do not silently change
	// cache identity.
	resp, err := http.Post(c.BaseURL()+"/v1/schedule", "application/json",
		strings.NewReader(`{"machine":"gp:2:2:1","ddg":"x","machnie":"oops"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestBackpressure admits one request, blocks it inside the pipeline,
// and checks the next one bounces with 429 without waiting.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	observer := obs.ObserverFunc(func(e obs.Event) {
		if e.Kind == obs.KindPhaseBegin && e.Phase == obs.PhaseMII {
			once.Do(func() { <-gate })
		}
	})
	c, _ := newTestServer(t, server.Config{MaxInflight: 1, Observer: observer})
	ctx := context.Background()

	firstDone := make(chan error, 1)
	go func() {
		_, _, err := c.Schedule(ctx, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1"})
		firstDone <- err
	}()

	// Wait until the first request is inside the pipeline (inflight=1).
	deadline := time.After(5 * time.Second)
	for {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatalf("statsz: %v", err)
		}
		if st.Inflight == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("first request never became in-flight")
		case <-time.After(5 * time.Millisecond):
		}
	}

	_, _, err := c.Schedule(ctx, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:4:4:2", Name: "other"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("second request err = %v, want 429", err)
	}

	close(gate)
	if err := <-firstDone; err != nil {
		t.Fatalf("gated request failed after release: %v", err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected < 1 {
		t.Errorf("rejected = %d, want >= 1", st.Rejected)
	}
}

// TestClientDisconnectCancelsSearch is the acceptance scenario: a
// client that goes away mid-request must abort the II escalation loop.
// The trace observer cancels the client's context the moment the MII
// phase opens, then parks the scheduling goroutine long enough for the
// disconnect to propagate; if cancellation reaches the search, the run
// dies before trying a single II candidate — which the trace proves,
// since any completed search announces at least one.
func TestClientDisconnectCancelsSearch(t *testing.T) {
	var (
		mu     sync.Mutex
		events []obs.Event
	)
	cancelc := make(chan context.CancelFunc, 1)
	var once sync.Once
	observer := obs.ObserverFunc(func(e obs.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
		if e.Kind == obs.KindPhaseBegin && e.Phase == obs.PhaseMII {
			once.Do(func() {
				(<-cancelc)()
				// Park inside the pipeline while the disconnect travels
				// client -> TCP -> server -> request context.
				time.Sleep(500 * time.Millisecond)
			})
		}
	})
	c, _ := newTestServer(t, server.Config{Observer: observer})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelc <- cancel

	_, _, err := c.Schedule(ctx, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
	}

	// Wait for the server side to finish unwinding.
	deadline := time.After(5 * time.Second)
	for {
		st, serr := c.Stats(context.Background())
		if serr != nil {
			t.Fatalf("statsz: %v", serr)
		}
		if st.Inflight == 0 {
			if st.Scheduled != 0 {
				t.Errorf("scheduled = %d after disconnect, want 0 (pipeline must not complete)", st.Scheduled)
			}
			if st.Cache.Entries != 0 {
				t.Errorf("cache entries = %d, want 0 (canceled runs must not be cached)", st.Cache.Entries)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("request still in flight long after disconnect")
		case <-time.After(10 * time.Millisecond):
		}
	}

	mu.Lock()
	defer mu.Unlock()
	candidates, ended := 0, 0
	for _, e := range events {
		switch {
		case e.Kind == obs.KindIICandidate:
			candidates++
		case e.Kind == obs.KindPhaseEnd && e.Phase == obs.PhaseSched && e.OK:
			ended++
		}
	}
	if candidates != 0 {
		t.Errorf("trace shows %d II candidates after disconnect, want 0 (escalation loop must abort)", candidates)
	}
	if ended != 0 {
		t.Errorf("trace shows %d successful scheduling phases after disconnect", ended)
	}
}

// TestGracefulDrain checks http.Server.Shutdown semantics through our
// handler, as clusterd uses on SIGTERM: an in-flight schedule finishes
// and is answered even though the listener has already closed.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	observer := obs.ObserverFunc(func(e obs.Event) {
		if e.Kind == obs.KindPhaseBegin && e.Phase == obs.PhaseMII {
			once.Do(func() { <-gate })
		}
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(server.Config{Observer: observer})}
	go srv.Serve(ln)

	c := client.New("http://"+ln.Addr().String(), nil)
	reqDone := make(chan error, 1)
	go func() {
		resp, _, err := c.Schedule(context.Background(), server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1"})
		if err == nil && resp.II < 1 {
			err = fmt.Errorf("bad response: %+v", resp)
		}
		reqDone <- err
	}()

	// Wait for the request to reach the pipeline.
	deadline := time.After(5 * time.Second)
	for {
		st, serr := c.Stats(context.Background())
		if serr == nil && st.Inflight == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("request never became in-flight")
		case <-time.After(5 * time.Millisecond):
		}
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Shutdown must wait for the gated request, not kill it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(150 * time.Millisecond):
	}

	close(gate)
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// benchSchedule drives one request through a running test server.
func benchSchedule(b *testing.B, c *client.Client, req server.ScheduleRequest) {
	b.Helper()
	_, _, err := c.ScheduleRaw(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServerCold schedules a distinct (never-cached) large loop
// per iteration: every request pays the full pipeline.
func BenchmarkServerCold(b *testing.B) {
	c, _ := newTestServer(b, server.Config{CacheBytes: 1 << 30})
	ddg := bigLoopDDG(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSchedule(b, c, server.ScheduleRequest{
			DDG: ddg, Machine: "gp:2:2:1",
			Name: fmt.Sprintf("big-%d", i), // unique name -> unique cache key
		})
	}
}

// BenchmarkServerCached repeats one request: after the first miss,
// every iteration is a cache hit. The acceptance bar is >= 10x the
// cold throughput on the same loop.
func BenchmarkServerCached(b *testing.B) {
	c, _ := newTestServer(b, server.Config{})
	req := server.ScheduleRequest{DDG: bigLoopDDG(b), Machine: "gp:2:2:1", Name: "big"}
	benchSchedule(b, c, req) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSchedule(b, c, req)
	}
}

// TestDeepNestingSourceIsRejected: a 2.4 MB loop body of nested
// parentheses, under the body cap, gets a 4xx from every endpoint
// that compiles source and a LOOP001 finding from /v1/lint, and the
// daemon keeps serving.
func TestDeepNestingSourceIsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("sends megabyte bodies")
	}
	c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()
	const n = 1200000
	src := "loop deep {\n x = " + strings.Repeat("(", n) + "y" + strings.Repeat(")", n) + "\n}\n"
	rejected := func(what string, err error) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status < 400 || apiErr.Status >= 500 {
			t.Errorf("%s: err = %v, want a 4xx APIError", what, err)
		} else if !strings.Contains(apiErr.ErrorResponse.Error, "nested more than") {
			t.Errorf("%s: error %q does not name the nesting bound", what, apiErr.ErrorResponse.Error)
		}
	}
	_, _, err := c.Schedule(ctx, server.ScheduleRequest{Source: src, Machine: "gp:2:2:1"})
	rejected("schedule", err)
	_, err = c.Batch(ctx, server.BatchRequest{Source: src, Machine: "gp:2:2:1"})
	rejected("batch", err)
	_, err = c.Compile(ctx, server.CompileRequest{Source: src, Machine: "gp:2:2:1"})
	rejected("compile", err)
	lint, err := c.Lint(ctx, server.LintRequest{Source: src})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if len(lint.Diagnostics) != 1 || lint.Diagnostics[0].Code != "LOOP001" || lint.Diagnostics[0].Line != 2 {
		t.Errorf("lint: %+v, want one LOOP001 at line 2", lint.Diagnostics)
	}
	if _, _, err := c.Schedule(ctx, server.ScheduleRequest{Source: "loop d { s = s + a[i]*b[i] }", Machine: "gp:2:2:1"}); err != nil {
		t.Fatalf("daemon stopped serving after the deep source: %v", err)
	}
}

// TestMemoryPairHeavySourceIsRejected: a 36 KB body of 4000 stores to
// one array, whose memory-dependence pairs are quadratic in its length,
// gets a 4xx naming the pair bound from every endpoint that compiles
// source and a LOOP001 finding from /v1/lint, before any edge is
// built, and the daemon keeps serving.
func TestMemoryPairHeavySourceIsRejected(t *testing.T) {
	c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()
	src := "loop st {\n" + strings.Repeat("a[i] = x\n", 4000) + "}\n"
	const bound = "memory-dependence analysis admits"
	rejected := func(what string, err error) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status < 400 || apiErr.Status >= 500 {
			t.Errorf("%s: err = %v, want a 4xx APIError", what, err)
		} else if !strings.Contains(apiErr.ErrorResponse.Error, bound) {
			t.Errorf("%s: error %q does not name the pair bound", what, apiErr.ErrorResponse.Error)
		}
	}
	_, _, err := c.Schedule(ctx, server.ScheduleRequest{Source: src, Machine: "gp:2:2:1"})
	rejected("schedule", err)
	_, err = c.Batch(ctx, server.BatchRequest{Source: src, Machine: "gp:2:2:1"})
	rejected("batch", err)
	_, err = c.Compile(ctx, server.CompileRequest{Source: src, Machine: "gp:2:2:1"})
	rejected("compile", err)
	lint, err := c.Lint(ctx, server.LintRequest{Source: src})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	// The AST lint's dead-store warnings come first; the one error is
	// the compile's.
	if len(lint.Diagnostics) == 0 {
		t.Fatal("lint: no findings, want a LOOP001")
	}
	last := lint.Diagnostics[len(lint.Diagnostics)-1]
	if lint.Errors != 1 || last.Code != "LOOP001" || !strings.Contains(last.Message, bound) {
		t.Errorf("lint: %d errors, last %+v, want one LOOP001 naming the pair bound", lint.Errors, last)
	}
	if _, _, err := c.Schedule(ctx, server.ScheduleRequest{Source: "loop d { s = s + a[i]*b[i] }", Machine: "gp:2:2:1"}); err != nil {
		t.Fatalf("daemon stopped serving after the pair-heavy source: %v", err)
	}
}

// TestLongRecurrenceIsRejected: a 749 KB body of 40,000
// `s = s + a[i+k]` lines compiles to one 80,001-operation recurrence,
// which would pin a worker in the scheduler's quadratic placement.
// Every endpoint that schedules answers it with a quick SRV002 422,
// for loop source and for ddg text alike; /v1/lint, which runs in
// linear time, still lints it, and the daemon keeps serving.
func TestLongRecurrenceIsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 40,000-statement body")
	}
	c, _ := newTestServer(t, server.Config{})
	ctx := context.Background()
	var b strings.Builder
	b.WriteString("loop ld {\n")
	for k := 0; k < 40000; k++ {
		fmt.Fprintf(&b, "s = s + a[i+%d]\n", k)
	}
	b.WriteString("}\n")
	src := b.String()
	loops, err := clustersched.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	var ddgText strings.Builder
	if err := ddgio.Write(&ddgText, "ld", loops[0].Graph); err != nil {
		t.Fatal(err)
	}
	rejected := func(what string, start time.Time, err error) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
			t.Errorf("%s: err = %v, want a 422 APIError", what, err)
		} else if d := apiErr.Diagnostics; len(d) != 1 || d[0].Code != server.CodeLoopTooLarge ||
			!strings.HasPrefix(apiErr.ErrorResponse.Error, server.CodeLoopTooLarge+": ") {
			t.Errorf("%s: error %q, diagnostics %+v; want one %s", what, apiErr.ErrorResponse.Error, d, server.CodeLoopTooLarge)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: rejected after %v", what, d)
		}
	}
	for _, payload := range []struct{ name, ddg, src string }{{"source", "", src}, {"ddg", ddgText.String(), ""}} {
		start := time.Now()
		_, _, err := c.Schedule(ctx, server.ScheduleRequest{DDG: payload.ddg, Source: payload.src, Machine: "gp:2:2:1"})
		rejected(payload.name+" schedule", start, err)
		start = time.Now()
		_, err = c.Batch(ctx, server.BatchRequest{DDG: payload.ddg, Source: payload.src, Machine: "gp:2:2:1"})
		rejected(payload.name+" batch", start, err)
		start = time.Now()
		_, err = c.Compile(ctx, server.CompileRequest{DDG: payload.ddg, Source: payload.src, Machine: "gp:2:2:1"})
		rejected(payload.name+" compile", start, err)
	}
	lint, err := c.Lint(ctx, server.LintRequest{Source: src})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if lint.Errors != 0 {
		t.Errorf("lint: %d errors, want the source linted without errors", lint.Errors)
	}
	if _, _, err := c.Schedule(ctx, server.ScheduleRequest{Source: "loop d { s = s + a[i]*b[i] }", Machine: "gp:2:2:1"}); err != nil {
		t.Fatalf("daemon stopped serving after the long recurrence: %v", err)
	}
}
