package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"clustersched"
	"clustersched/internal/cache"
	"clustersched/internal/client"
	"clustersched/internal/ddg"
	"clustersched/internal/ddgio"
	"clustersched/internal/machine"
	"clustersched/internal/server"
)

// serveSpec is the machine every serve request targets.
const serveSpec = "gp:2:2:1"

// serveCallers is the number of closed-loop callers: compilers that
// each wait for their reply, one keep-alive connection each. Two is
// the core count of the reference host; more callers than cores would
// measure the OS scheduler.
const serveCallers = 2

// serveCacheMB is the daemon's cache budget in both serve workloads.
// At about 1.1 KiB per entry the default 64 MiB would still be filling
// when a window ends, so peak memory would track throughput. 6 MiB
// fills within seconds (serve-cold) or within the window's first half
// (serve-hot's misses), after which inserts evict; it still holds
// serve-hot's warm set with room for roughly 4000 misses, so a warm
// entry is never the least recently used one between two repeats.
const serveCacheMB = 6

// serveOptionIdentity is the option part of the daemon's cache key for
// a request that leaves every option at its default.
var serveOptionIdentity = []string{"heuristic-iterative", "ims", "budget=0", "slack=0"}

// expect is the in-process facade's schedule of one loop: what every
// daemon reply for that loop must carry.
type expect struct {
	ii, mii, copies    int
	clusterOf, cycleOf []int
	kernel             string
	regs               int
}

func expectOf(res *clustersched.Result) expect {
	return expect{
		ii: res.II, mii: res.MII, copies: res.Copies,
		clusterOf: res.ClusterOf, cycleOf: res.CycleOf,
		kernel: res.Kernel(), regs: res.Registers().TotalRegisters(),
	}
}

// checkReply decodes a /v1/schedule reply and compares it with the
// facade's schedule of the same loop. Any difference is an oracle
// failure.
func checkReply(body []byte, name string, want *expect) error {
	var r server.ScheduleResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	switch {
	case len(r.Diagnostics) > 0:
		return fmt.Errorf("reply for %s carries %d audit diagnostics, first %v", name, len(r.Diagnostics), r.Diagnostics[0])
	case r.Name != name:
		return fmt.Errorf("reply names %q, want %q", r.Name, name)
	case r.II != want.ii || r.MII != want.mii || r.Copies != want.copies:
		return fmt.Errorf("reply for %s has II %d, MII %d, %d copies; the facade gives II %d, MII %d, %d copies",
			name, r.II, r.MII, r.Copies, want.ii, want.mii, want.copies)
	case !slices.Equal(r.ClusterOf, want.clusterOf):
		return fmt.Errorf("reply for %s: cluster_of differs from the facade", name)
	case !slices.Equal(r.CycleOf, want.cycleOf):
		return fmt.Errorf("reply for %s: cycle_of differs from the facade", name)
	case r.Kernel != want.kernel:
		return fmt.Errorf("reply for %s: kernel differs from the facade", name)
	}
	return nil
}

// serveInst is a serve workload set up: a running clusterd that has
// answered one request for every suite loop, the facade's schedule of
// every loop, and one client per caller.
type serveInst struct {
	hot     bool
	seed    uint64
	m       *machine.Config
	loops   []*ddg.Graph
	order   []int // serve-cold's loop order, drawn from the seed
	ddgs    []string
	want    []expect
	warm    [][]byte // the warm-up reply per loop: what a hit must return byte for byte
	quality quality
	d       *daemon
	clients []*client.Client

	// State of the traced window.
	local  *cache.Cache // primed with the warm replies, for the replayed hits
	stats0 *server.StatsResponse
	n      [serveCallers]replayCounts
}

type replayCounts struct{ reqs, reqBytes, respBytes int }

func setupServeCold(ctx context.Context, cfg config) (instance, error) {
	return setupServe(ctx, cfg, false)
}

func setupServeHot(ctx context.Context, cfg config) (instance, error) {
	return setupServe(ctx, cfg, true)
}

// setupServe computes the facade's schedule and the unified II of
// every loop of the paper's suite, starts clusterd and waits for
// /healthz, and sends one request per loop (the serve-hot pre-fill),
// checking each reply.
func setupServe(ctx context.Context, cfg config, hot bool) (instance, error) {
	s := &serveInst{
		hot:   hot,
		seed:  uint64(cfg.seed),
		m:     machine.NewBusedGP(2, 2, 1),
		loops: paperSuite(cfg),
	}
	s.order = opOrder(cfg.seed, len(s.loops))
	for i, g := range s.loops {
		var b strings.Builder
		if err := ddgio.Write(&b, "loop"+strconv.Itoa(i), g); err != nil {
			return nil, err
		}
		s.ddgs = append(s.ddgs, b.String())
		res, err := clustersched.Schedule(g, s.m)
		if err != nil {
			return nil, fmt.Errorf("loop %d does not schedule on %s: %w", i, serveSpec, err)
		}
		s.want = append(s.want, expectOf(res))
	}
	unified := unifiedIIs(s.loops, s.m)

	d, err := startDaemon(ctx, cfg.clusterd, serveCacheMB)
	if err != nil {
		return nil, err
	}
	s.d = d
	for c := 0; c < serveCallers; c++ {
		s.clients = append(s.clients, client.New(d.url, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}))
	}

	s.warm = make([][]byte, len(s.loops))
	err = s.warmUp(ctx)
	if err == nil {
		for i := range s.loops {
			var r server.ScheduleResponse
			if err = json.Unmarshal(s.warm[i], &r); err != nil {
				break
			}
			s.quality.add(r.II, r.MII, r.Copies, s.want[i].regs, unified[i])
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warmName is the name of loop i's warm-up request; serve-hot's
// repeats reuse it, so they hit the entry the warm-up filled.
func warmName(i int) string { return "warm-" + strconv.Itoa(i) }

// warmUp sends every loop once under its warm name from all callers,
// keeping each reply.
func (s *serveInst) warmUp(ctx context.Context) error {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		next    int
		firstEr error
	)
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := firstEr != nil
				mu.Unlock()
				if stop || i >= len(s.loops) {
					return
				}
				body, err := s.send(ctx, c, warmName(i), i, false)
				mu.Lock()
				if err != nil && firstEr == nil {
					firstEr = fmt.Errorf("warm-up request %d: %w", i, err)
				}
				s.warm[i] = body
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return firstEr
}

// send posts one request for loop under name and checks the reply: its
// X-Cache state, and either byte equality with the warm reply (a hit)
// or the facade oracle (a miss).
func (s *serveInst) send(ctx context.Context, c int, name string, loop int, hit bool) ([]byte, error) {
	body, xcache, err := s.clients[c].ScheduleRaw(ctx, server.ScheduleRequest{Name: name, DDG: s.ddgs[loop], Machine: serveSpec})
	if err != nil {
		return nil, err
	}
	return body, s.verify(body, xcache, name, loop, hit)
}

func (s *serveInst) verify(body []byte, xcache, name string, loop int, hit bool) error {
	want := "miss"
	if hit {
		want = "hit"
	}
	if xcache != want {
		return fmt.Errorf("request %s: X-Cache %q, want %q", name, xcache, want)
	}
	if hit {
		if !bytes.Equal(body, s.warm[loop]) {
			return fmt.Errorf("request %s: cached reply differs from the reply that filled the cache", name)
		}
		return nil
	}
	return checkReply(body, name, &s.want[loop])
}

// request is timed request i: its name, its loop, and whether the
// daemon must serve it from the cache. serve-cold never repeats a
// name and visits the loops in the seed's order, pass after pass.
// serve-hot repeats a warm name, drawn uniformly by a hash of the seed
// and i, nine times in ten, and otherwise sends a fresh name.
func (s *serveInst) request(i int) (name string, loop int, hit bool) {
	if !s.hot {
		return "cold-" + strconv.Itoa(i), s.order[i%len(s.order)], false
	}
	r := splitmix(s.seed ^ splitmix(uint64(i)))
	loop = int((r >> 8) % uint64(len(s.loops)))
	if r%10 == 0 {
		return "fresh-" + strconv.Itoa(i), loop, false
	}
	return warmName(loop), loop, true
}

// splitmix is the SplitMix64 finalizer, a fixed bijective mixer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *serveInst) callers() int { return serveCallers }

func (s *serveInst) op(ctx context.Context, c, i int, tr *tracer) (time.Duration, bool, error) {
	name, loop, hit := s.request(i)
	req := server.ScheduleRequest{Name: name, DDG: s.ddgs[loop], Machine: serveSpec}
	root, rtt := -1, -1
	if tr != nil {
		root = tr.begin(i, -1, "op")
		rtt = tr.begin(i, root, "server.rtt")
	}
	start := time.Now()
	body, xcache, err := s.clients[c].ScheduleRaw(ctx, req)
	lat := time.Since(start)
	if tr != nil {
		tr.end(rtt)
		defer tr.end(root)
	}
	if err != nil {
		if ctx.Err() != nil {
			return lat, false, ctx.Err()
		}
		return lat, true, nil
	}
	if err := s.verify(body, xcache, name, loop, hit); err != nil {
		return lat, false, fmt.Errorf("%s: %w", s.name(), err)
	}
	if tr != nil {
		if err := s.replay(tr, i, root, c, req, hit, body); err != nil {
			return lat, false, fmt.Errorf("%s: request %s: %w", s.name(), name, err)
		}
	}
	return lat, false, nil
}

func (s *serveInst) name() string {
	if s.hot {
		return "serve-hot"
	}
	return "serve-cold"
}

// replay runs one traced request again in-process through each layer's
// public entry point, in the order the client and the daemon take
// them: request encode, body decode, ddg parse, cache key, then a
// lookup on a local cache primed like the daemon's (a hit) or the
// facade schedule, its audit and the response encode (a miss), and
// last the client's decode of the real reply.
func (s *serveInst) replay(tr *tracer, op, parent, c int, req server.ScheduleRequest, hit bool, body []byte) error {
	id := tr.begin(op, parent, "decomp")
	defer tr.end(id)
	t := tr.begin(op, id, "client.encode")
	raw, err := json.Marshal(req)
	tr.end(t)
	if err != nil {
		return err
	}
	t = tr.begin(op, id, "server.decode")
	var got server.ScheduleRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err = dec.Decode(&got)
	tr.end(t)
	if err != nil {
		return err
	}
	t = tr.begin(op, id, "ddgio.parse")
	loops, err := ddgio.Read(strings.NewReader(got.DDG))
	tr.end(t)
	if err != nil {
		return err
	}
	g := loops[0].Graph
	t = tr.begin(op, id, "cache.key")
	key := cache.Key(g, s.m, append([]string{got.Name}, serveOptionIdentity...)...)
	tr.end(t)
	if hit {
		t = tr.begin(op, id, "cache.get")
		cached, ok := s.local.Get(key)
		tr.end(t)
		if !ok || !bytes.Equal(cached, body) {
			return errors.New("replayed lookup misses the primed entry")
		}
	} else {
		t = tr.begin(op, id, "pipeline")
		res, err := clustersched.Schedule(g, s.m)
		tr.end(t)
		if err != nil {
			return err
		}
		t = tr.begin(op, id, "verify")
		diags := res.Audit()
		tr.end(t)
		if len(diags) > 0 {
			return fmt.Errorf("replayed schedule fails the audit: %v", diags[0])
		}
		t = tr.begin(op, id, "server.encode")
		_, err = json.Marshal(server.ResponseFor(got.Name, got.Machine, res))
		tr.end(t)
		if err != nil {
			return err
		}
	}
	t = tr.begin(op, id, "client.decode")
	var resp server.ScheduleResponse
	err = json.Unmarshal(body, &resp)
	tr.end(t)
	if err != nil {
		return err
	}
	n := &s.n[c]
	n.reqs++
	n.reqBytes += len(raw)
	n.respBytes += len(body)
	return nil
}

func (s *serveInst) output() quality { return s.quality }

func (s *serveInst) peakRSS() (metric, error) {
	v, err := vmHWM(strconv.Itoa(s.d.cmd.Process.Pid))
	return metric{v, "VmHWM of clusterd"}, err
}

// beginTrace primes the local cache the replayed hits read, and takes
// the /statsz snapshot the window's cache counters are measured from.
func (s *serveInst) beginTrace(ctx context.Context) error {
	s.local = cache.New(0)
	for i, g := range s.loops {
		key := cache.Key(g, s.m, append([]string{warmName(i)}, serveOptionIdentity...)...)
		if _, _, err := s.local.GetOrCompute(ctx, key, func(context.Context) ([]byte, error) { return s.warm[i], nil }); err != nil {
			return err
		}
	}
	var err error
	s.stats0, err = s.clients[0].Stats(ctx)
	return err
}

func (s *serveInst) layers(ctx context.Context, tracers []*tracer) (map[string]metric, error) {
	st, err := s.clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}
	var n replayCounts
	for _, c := range s.n {
		n.reqs += c.reqs
		n.reqBytes += c.reqBytes
		n.respBytes += c.respBytes
	}
	l := newLedger(tracers)
	note := fmt.Sprintf("mean of n=%d requests", n.reqs)
	var sum time.Duration
	for _, name := range []string{"client.encode", "server.decode", "ddgio.parse", "cache.key", "cache.get", "pipeline", "server.encode", "client.decode"} {
		sum += l[name]
	}
	hits := st.Cache.Hits - s.stats0.Cache.Hits
	lookups := hits + st.Cache.Misses - s.stats0.Cache.Misses + st.Cache.Coalesced - s.stats0.Cache.Coalesced
	window := "during the traced window, from /statsz"
	return map[string]metric{
		"client.encode_us":       {l.us("client.encode", n.reqs), note},
		"server.decode_us":       {l.us("server.decode", n.reqs), note},
		"ddgio.parse_us":         {l.us("ddgio.parse", n.reqs), note},
		"cache.key_us":           {l.us("cache.key", n.reqs), note},
		"cache.get_us":           {l.us("cache.get", n.reqs), note},
		"pipeline.us_per_req":    {l.us("pipeline", n.reqs), note},
		"verify.us_per_req":      {l.us("verify", n.reqs), note + "; the audit also runs inside server.encode"},
		"server.encode_us":       {l.us("server.encode", n.reqs), note},
		"client.decode_us":       {l.us("client.decode", n.reqs), note},
		"server.rtt_us":          {l.us("server.rtt", n.reqs), note},
		"server.unattributed_us": {float64((l["server.rtt"] - sum).Nanoseconds()) / 1e3 / float64(n.reqs), "rtt - sum of layers except verify, " + note},
		"cache.hit_frac":         {ratio(int(hits), int(lookups)), fmt.Sprintf("%d of %d lookups %s", hits, lookups, window)},
		"cache.evictions":        {float64(st.Cache.Evictions - s.stats0.Cache.Evictions), window},
		"server.rejected":        {float64(st.Rejected - s.stats0.Rejected), window},
		"server.req_bytes":       {float64(n.reqBytes) / float64(n.reqs), note},
		"server.resp_bytes":      {float64(n.respBytes) / float64(n.reqs), note},
	}, nil
}

func (s *serveInst) close() error { return s.d.stop() }

// daemon is a running clusterd child process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan error // receives the exit status once

	stopOnce sync.Once
	stopErr  error
}

// startDaemon starts clusterd on a free loopback port with a result
// cache of cacheMB MiB, reads the address it prints, and waits until
// /healthz answers.
func startDaemon(ctx context.Context, path string, cacheMB int) (*daemon, error) {
	listening := make(chan string, 1)
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-cache-mb", strconv.Itoa(cacheMB))
	cmd.Stdout = &lineWriter{lines: listening}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting clusterd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, err
	}
	select {
	case line := <-listening:
		const prefix = "clusterd: listening on "
		if !strings.HasPrefix(line, prefix) {
			return fail(fmt.Errorf("clusterd printed %q", line))
		}
		d.url = strings.TrimPrefix(line, prefix)
	case err := <-d.done:
		d.done <- err
		return fail(fmt.Errorf("clusterd exited at start: %v", err))
	case <-time.After(10 * time.Second):
		return fail(errors.New("clusterd printed no address within 10s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	c := client.New(d.url, nil)
	for deadline := time.Now().Add(10 * time.Second); ; {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := c.Health(hctx)
		cancel()
		if err == nil {
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fail(fmt.Errorf("clusterd /healthz: %w", err))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop asks clusterd to drain with SIGTERM, kills it if it has not
// exited within 10s, and waits for it either way. Later calls return
// the first call's result.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; the wait below reports that
		select {
		case d.stopErr = <-d.done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill() // the wait below is what matters
			<-d.done
			d.stopErr = errors.New("clusterd did not drain within 10s and was killed")
		}
	})
	return d.stopErr
}

// lineWriter delivers the first complete line written to it.
type lineWriter struct {
	mu    sync.Mutex
	buf   []byte
	lines chan<- string
	sent  bool
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		w.lines <- string(w.buf[:i])
		w.sent = true
	}
	return len(p), nil
}
