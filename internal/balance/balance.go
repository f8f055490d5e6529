// Package balance implements clusterlb, the fleet front end: a
// stdlib-only HTTP balancer that fans clusterd's scheduling API out
// over N workers. Three mechanisms cooperate (docs/SERVICE.md has the
// operator view):
//
//   - Placement. Every dispatch picks a worker with power-of-k-choices
//     over an idle/queue-depth min-heap (heap.go): pop the k cheapest
//     candidates, re-score them against the live in-flight counters,
//     send to the best. Heartbeat polls of each worker's /fleetz feed
//     the reported-depth half of the score.
//
//   - Cache affinity. /v1/schedule requests are routed to the
//     consistent-hash owner of their content-addressed cache key
//     (server.KeyForRequest onto cachering), so repeated requests hit
//     the same worker's cache, and a worker failure only remaps the
//     keys it owned. The ring is rebuilt whenever the membership epoch
//     moves.
//
//   - Tail tolerance. A schedule request still unanswered after a
//     p99-derived delay is hedged: a budgeted duplicate goes to the
//     next-best worker, the first response wins, the loser's context
//     is canceled. Transport failures mark the worker suspect in the
//     membership table and fail over to another worker; scheduling is
//     pure and content-addressed, so retries and hedges always return
//     byte-identical bodies.
package balance

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"clustersched/internal/cachering"
	"clustersched/internal/client"
	"clustersched/internal/membership"
	"clustersched/internal/obs"
	"clustersched/internal/server"
)

// maxBodyBytes mirrors the worker-side request cap.
const maxBodyBytes = 16 << 20

// Config tunes a Balancer. Workers is required; everything else has
// a usable default.
type Config struct {
	// Workers is the clusterd base URLs the balancer fans out over.
	Workers []string
	// K is the power-of-k-choices width (default 2).
	K int
	// VirtualNodes is the consistent-hash points per worker
	// (cachering.DefaultVirtualNodes when <= 0).
	VirtualNodes int
	// HeartbeatEvery is the /fleetz poll interval (default 1s).
	HeartbeatEvery time.Duration
	// SuspectAfter and DeadAfter are the membership timeouts; they
	// default from HeartbeatEvery (3x and 9x).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// HedgeBudget is the fraction of schedule dispatches that may be
	// hedged (default 0.1; 0 disables hedging).
	HedgeBudget float64
	// HedgeAfterMin floors the hedge delay, and is the delay used
	// before enough latency samples exist (default 20ms).
	HedgeAfterMin time.Duration
	// RequestTimeout bounds one proxied request end to end, including
	// failover attempts (0 = bounded only by the client connection).
	RequestTimeout time.Duration
	// HTTPClient overrides the outbound client (nil = a pooled one).
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 2
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatEvery
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 9 * c.HeartbeatEvery
	}
	if c.HedgeBudget < 0 {
		c.HedgeBudget = 0
	}
	if c.HedgeAfterMin <= 0 {
		c.HedgeAfterMin = 20 * time.Millisecond
	}
	if c.HTTPClient == nil {
		tr := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second}
		c.HTTPClient = &http.Client{Transport: tr}
	}
	return c
}

// Balancer is clusterlb's http.Handler plus the heartbeat poller.
// Create one with New, serve it, and run Run in the background.
type Balancer struct {
	cfg      Config
	mux      *http.ServeMux
	members  *membership.Table
	workers  []*worker // configuration order
	byID     map[string]*worker
	start    time.Time
	counters obs.FleetCounters
	digest   *latencyDigest
	budget   hedgeBudget

	requests atomic.Int64

	mu   sync.Mutex // guards the heap (and worker heap indices)
	heap loadHeap

	ringMu sync.Mutex // serializes rebuilds; reads go through ring
	ring   atomic.Pointer[cachering.Ring]
}

// New builds a balancer over cfg.Workers. Every worker starts Alive
// (optimistically; the first failed dispatch or heartbeat demotes
// it), and the initial ring covers all of them.
func New(cfg Config) (*Balancer, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("balance: no workers configured")
	}
	b := &Balancer{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		members: membership.NewTable(membership.Config{SuspectAfter: cfg.SuspectAfter, DeadAfter: cfg.DeadAfter}),
		byID:    make(map[string]*worker, len(cfg.Workers)),
		start:   time.Now(),
		digest:  newLatencyDigest(),
		budget:  hedgeBudget{fraction: cfg.HedgeBudget, burst: 4},
	}
	now := time.Now()
	for _, url := range cfg.Workers {
		if _, dup := b.byID[url]; dup {
			return nil, fmt.Errorf("balance: duplicate worker %s", url)
		}
		w := &worker{id: url, c: client.New(url, cfg.HTTPClient), heapIndex: -1}
		b.workers = append(b.workers, w)
		b.byID[url] = w
		b.members.Register(url, now)
	}
	b.mu.Lock()
	for _, w := range b.workers {
		heap.Push(&b.heap, w)
	}
	b.mu.Unlock()
	b.rebuildRing()

	b.mux.HandleFunc("/v1/schedule", b.handleSchedule)
	b.mux.HandleFunc("/v1/batch", b.proxyByChoice("/v1/batch"))
	b.mux.HandleFunc("/v1/lint", b.proxyByChoice("/v1/lint"))
	b.mux.HandleFunc("/healthz", b.handleHealthz)
	b.mux.HandleFunc("/statsz", b.handleStatsz)
	return b, nil
}

// ServeHTTP dispatches to the balancer routes.
func (b *Balancer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.mux.ServeHTTP(w, r)
}

// Run polls every worker's /fleetz until ctx ends, feeding the
// membership table and rebuilding the ring on epoch changes. It
// probes once immediately, so a balancer in front of a dead worker
// reroutes within one heartbeat of starting.
func (b *Balancer) Run(ctx context.Context) {
	ticker := time.NewTicker(b.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		b.probeAll(ctx)
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// probeAll heartbeats every worker in parallel, then applies the
// timeout rules and refreshes the ring.
func (b *Balancer) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range b.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, b.cfg.HeartbeatEvery)
			defer cancel()
			b.counters.HeartbeatProbes.Add(1)
			fz, err := w.c.Fleetz(pctx)
			now := time.Now()
			if err != nil {
				b.counters.HeartbeatFailures.Add(1)
				b.members.ReportFailure(w.id, now)
				return
			}
			b.members.Heartbeat(w.id, fz.Inflight, now)
			w.reported.Store(int64(fz.Inflight))
			b.mu.Lock()
			b.heap.fix(w)
			b.mu.Unlock()
		}(w)
	}
	wg.Wait()
	b.members.Tick(time.Now())
	b.rebuildRing()
}

// rebuildRing swaps in a ring for the current membership epoch if one
// is not already installed. Rebuilds are cheap (a few thousand hashes)
// and happen only when the epoch moves.
func (b *Balancer) rebuildRing() {
	b.ringMu.Lock()
	defer b.ringMu.Unlock()
	epoch := b.members.Epoch()
	if cur := b.ring.Load(); cur != nil && cur.Epoch() == epoch {
		return
	}
	b.ring.Store(cachering.New(epoch, b.members.Eligible(), b.cfg.VirtualNodes))
	b.counters.RingRebalances.Add(1)
}

// alive reports whether w is currently placement-eligible.
func (b *Balancer) alive(w *worker) bool {
	st, ok := b.members.State(w.id)
	return ok && st == membership.Alive
}

// pick chooses a dispatch target by power-of-k-choices among the
// alive workers not in exclude; with no alive candidate it degrades
// to suspect workers (better a maybe-dead worker than a guaranteed
// error), and returns nil only when every worker is excluded.
func (b *Balancer) pick(exclude map[string]bool) *worker {
	b.mu.Lock()
	defer b.mu.Unlock()
	w := b.heap.pickK(b.cfg.K, func(w *worker) bool {
		return !exclude[w.id] && b.alive(w)
	})
	if w == nil {
		w = b.heap.pickK(b.cfg.K, func(w *worker) bool {
			st, ok := b.members.State(w.id)
			return !exclude[w.id] && ok && st != membership.Dead
		})
	}
	if w == nil {
		w = b.heap.pickK(b.cfg.K, func(w *worker) bool { return !exclude[w.id] })
	}
	return w
}

// owner resolves the ring owner of key to a live worker, or nil when
// the owner is not currently eligible (the caller falls back to
// k-choices until the next rebalance remaps the arc).
func (b *Balancer) owner(key string) *worker {
	ring := b.ring.Load()
	if ring == nil {
		return nil
	}
	id, ok := ring.Owner(key)
	if !ok {
		return nil
	}
	w := b.byID[id]
	if w == nil || !b.alive(w) {
		return nil
	}
	return w
}

// result is one forwarded reply: either a full HTTP response from a
// worker (authoritative, whatever the status) or a transport error.
type result struct {
	status      int
	contentType string
	xcache      string
	body        []byte
	worker      *worker
	err         error
}

// send forwards one request body to w and buffers the entire reply
// before reporting success, so a worker dying mid-response surfaces
// as a transport error and fails over instead of truncating the
// client's body.
func (b *Balancer) send(ctx context.Context, w *worker, path string, body []byte) result {
	w.inflight.Add(1)
	w.placements.Add(1)
	b.mu.Lock()
	b.heap.fix(w)
	b.mu.Unlock()
	defer func() {
		w.inflight.Add(-1)
		b.mu.Lock()
		b.heap.fix(w)
		b.mu.Unlock()
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.id+path, bytes.NewReader(body))
	if err != nil {
		return result{worker: w, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.cfg.HTTPClient.Do(req)
	if err != nil {
		return result{worker: w, err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return result{worker: w, err: err}
	}
	return result{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		xcache:      resp.Header.Get("X-Cache"),
		body:        data,
		worker:      w,
	}
}

// fail records a transport failure of w and refreshes the ring so
// subsequent keyed requests stop routing to it.
func (b *Balancer) fail(w *worker) {
	if b.members.ReportFailure(w.id, time.Now()) {
		b.rebuildRing()
	}
}

// dispatch forwards body to primary (or a k-choices pick when nil),
// failing over across workers on transport errors. hedged enables the
// duplicate-dispatch tail protection for the attempt on the primary.
func (b *Balancer) dispatch(ctx context.Context, path string, body []byte, primary *worker, hedged bool) result {
	exclude := make(map[string]bool, 2)
	cur := primary
	if cur == nil {
		cur = b.pick(exclude)
	}
	var last result
	for attempt := 0; cur != nil && attempt < 2*len(b.workers); attempt++ {
		if attempt > 0 {
			b.counters.Failovers.Add(1)
		}
		if hedged {
			last = b.sendHedged(ctx, cur, exclude, path, body)
		} else {
			last = b.send(ctx, cur, path, body)
			if last.err != nil {
				b.fail(cur)
			}
		}
		if last.err == nil || ctx.Err() != nil {
			return last
		}
		exclude[cur.id] = true
		if last.worker != nil {
			exclude[last.worker.id] = true
		}
		cur = b.pick(exclude)
	}
	if last.err == nil && last.status == 0 {
		last.err = errors.New("balance: no worker available")
	}
	return last
}

// sendHedged runs one attempt with tail hedging: the primary leg
// starts immediately; if it is still unanswered after the p99-derived
// delay and the budget allows, a duplicate goes to the next-best
// worker. The first non-error reply wins and cancels the other leg.
// An error is returned only when every started leg failed.
func (b *Balancer) sendHedged(ctx context.Context, primary *worker, exclude map[string]bool, path string, body []byte) result {
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan result, 2)
	legs := 1
	go func() { results <- b.send(lctx, primary, path, body) }()

	timer := time.NewTimer(b.hedgeDelay())
	defer timer.Stop()
	hedgeFired := false
	start := time.Now()

	var firstErr result
	for {
		select {
		case res := <-results:
			legs--
			if res.err == nil {
				if hedgeFired {
					if res.worker == primary {
						b.counters.HedgeWasted.Add(1)
					} else {
						b.counters.HedgeWins.Add(1)
					}
				}
				b.digest.record(time.Since(start))
				cancel() // the losing leg's context; its send drains into the buffered channel
				return res
			}
			// A leg failed: mark the worker, keep waiting on the other
			// leg if one is still out, otherwise report the failure.
			if res.worker != nil && ctx.Err() == nil {
				b.fail(res.worker)
			}
			if legs > 0 {
				firstErr = res
				continue
			}
			if firstErr.err != nil && res.worker == nil {
				return firstErr
			}
			return res
		case <-timer.C:
			if hedgeFired {
				continue
			}
			hedgeFired = true
			if !b.budget.allow(b.counters.Hedges.Load(), b.counters.Placements.Load()) {
				continue
			}
			ex := map[string]bool{primary.id: true}
			for id := range exclude {
				ex[id] = true
			}
			alt := b.pick(ex)
			if alt == nil || !b.alive(alt) {
				continue
			}
			b.counters.Hedges.Add(1)
			legs++
			go func() { results <- b.send(lctx, alt, path, body) }()
		case <-ctx.Done():
			return result{err: ctx.Err()}
		}
	}
}

// hedgeDelay derives the duplicate-dispatch delay from the observed
// latency p99, floored at the configured minimum.
func (b *Balancer) hedgeDelay() time.Duration {
	if p99, ok := b.digest.quantile(0.99); ok && p99 > b.cfg.HedgeAfterMin {
		return p99
	}
	return b.cfg.HedgeAfterMin
}

// readBody buffers the request body under the size cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	return io.ReadAll(r.Body)
}

// reply writes a worker result through to the client, tagging which
// worker answered.
func reply(w http.ResponseWriter, res result) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	if res.xcache != "" {
		w.Header().Set("X-Cache", res.xcache)
	}
	if res.worker != nil {
		w.Header().Set("X-Fleet-Worker", res.worker.id)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func writeBalancerError(w http.ResponseWriter, status int, err error) {
	body, _ := json.Marshal(server.ErrorResponse{Error: "clusterlb: " + err.Error()})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// requestCtx applies the configured end-to-end timeout.
func (b *Balancer) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if b.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), b.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// handleSchedule routes one schedule request: to the consistent-hash
// owner of its cache key when one is live (cache affinity), otherwise
// by power-of-k-choices; the dispatch is hedged either way.
func (b *Balancer) handleSchedule(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeBalancerError(rw, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	b.requests.Add(1)
	body, err := readBody(rw, r)
	if err != nil {
		writeBalancerError(rw, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := b.requestCtx(r)
	defer cancel()

	// Routing is best-effort: a request the worker will reject still
	// gets forwarded (by load), so error bodies come from the worker
	// and match the single-node daemon byte for byte.
	var primary *worker
	var req server.ScheduleRequest
	if jsonErr := json.Unmarshal(body, &req); jsonErr == nil {
		if key, keyErr := server.KeyForRequest(req); keyErr == nil {
			primary = b.owner(key)
		}
	}
	b.counters.Placements.Add(1)
	if primary != nil {
		b.counters.RingRouted.Add(1)
	} else {
		b.counters.ChoiceRouted.Add(1)
	}
	res := b.dispatch(ctx, "/v1/schedule", body, primary, true)
	if res.err != nil {
		writeBalancerError(rw, http.StatusBadGateway, res.err)
		return
	}
	reply(rw, res)
}

// proxyByChoice forwards a whole request to one k-choices-picked
// worker with failover (batch and lint have no single cache key to
// pin them to a ring arc).
func (b *Balancer) proxyByChoice(path string) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeBalancerError(rw, http.StatusMethodNotAllowed, errors.New("POST only"))
			return
		}
		b.requests.Add(1)
		body, err := readBody(rw, r)
		if err != nil {
			writeBalancerError(rw, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := b.requestCtx(r)
		defer cancel()
		b.counters.Placements.Add(1)
		b.counters.ChoiceRouted.Add(1)
		res := b.dispatch(ctx, path, body, nil, false)
		if res.err != nil {
			writeBalancerError(rw, http.StatusBadGateway, res.err)
			return
		}
		reply(rw, res)
	}
}

func (b *Balancer) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	for _, w := range b.workers {
		if b.alive(w) {
			rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(rw, "ok")
			return
		}
	}
	writeBalancerError(rw, http.StatusServiceUnavailable, errors.New("no alive workers"))
}

func (b *Balancer) handleStatsz(rw http.ResponseWriter, r *http.Request) {
	snap := b.members.Snapshot()
	ring := b.ring.Load()
	resp := StatszResponse{
		UptimeSeconds:   time.Since(b.start).Seconds(),
		Requests:        b.requests.Load(),
		Fleet:           b.counters.Snapshot(),
		MembershipEpoch: snap.Epoch,
		Transitions:     snap.Transitions,
	}
	if ring != nil {
		resp.RingEpoch = ring.Epoch()
		resp.RingNodes = ring.Nodes()
	}
	for _, n := range snap.Nodes {
		ws := WorkerStatus{Node: n}
		if w := b.byID[n.ID]; w != nil {
			ws.Inflight = w.inflight.Load()
			ws.Placements = w.placements.Load()
		}
		resp.Workers = append(resp.Workers, ws)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		writeBalancerError(rw, http.StatusInternalServerError, err)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.Write(body)
}

// StatszResponse is clusterlb's /statsz body.
type StatszResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts front-end requests (each client request once).
	Requests int64 `json:"requests"`
	// Fleet is the placement/hedge/failover counter block.
	Fleet obs.FleetStats `json:"fleet"`
	// MembershipEpoch is the eligible-set version; RingEpoch is the
	// epoch the installed ring was built for (they match outside the
	// instant of a rebalance). Transitions counts all state changes.
	MembershipEpoch uint64   `json:"membership_epoch"`
	Transitions     uint64   `json:"transitions"`
	RingEpoch       uint64   `json:"ring_epoch"`
	RingNodes       []string `json:"ring_nodes"`
	// Workers is the per-worker view: membership state plus the
	// balancer's live in-flight and placement counters.
	Workers []WorkerStatus `json:"workers"`
}

// WorkerStatus is one worker's row in StatszResponse.
type WorkerStatus struct {
	membership.Node
	Inflight   int64 `json:"inflight"`
	Placements int64 `json:"placements"`
}
