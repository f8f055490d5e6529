// Package server implements clusterd's HTTP JSON API: a long-running
// scheduling service in front of the clustersched facade, with a
// content-addressed result cache (package cache), bounded concurrency
// with 429 backpressure, and cancellation threaded from the client
// connection all the way into the II-escalation loop.
//
// Routes (see docs/SERVICE.md for the full reference):
//
//	POST /v1/schedule   schedule one loop (ddg text or loop source)
//	POST /v1/batch      schedule every loop of a multi-loop payload
//	POST /v1/compile    fully compile a translation unit to kernels
//	POST /v1/lint       static analysis without scheduling
//	GET  /healthz       liveness probe
//	GET  /statsz        cache, request, and search-effort counters
//
// Identical schedule requests are served from the cache byte-for-byte:
// the cache stores the encoded response body, and the X-Cache response
// header says whether a request was a miss (this request ran the
// pipeline), a hit (served from the store), or coalesced (shared the
// result of a concurrent identical request). /v1/schedule looks a
// request up twice: first by the fingerprint of its exact body bytes,
// which skips decoding and parsing, then by the canonical content key.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersched"
	"clustersched/internal/assign"
	"clustersched/internal/cache"
	"clustersched/internal/cli"
	"clustersched/internal/compile"
	"clustersched/internal/ddgio"
	"clustersched/internal/diag"
	"clustersched/internal/frontend"
	"clustersched/internal/lint"
	"clustersched/internal/obs"
	"clustersched/internal/pipeline"
	"clustersched/internal/pool"
)

// maxBodyBytes bounds every request body.
const maxBodyBytes = 16 << 20

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// recorded when the client disconnected before its schedule finished.
// The client never sees it — the connection is gone — but it keeps the
// handler's accounting honest.
const StatusClientClosedRequest = 499

// CodeAuditFailed marks a schedule that failed its own audit: the
// daemon answers 500 and caches nothing rather than serve, and later
// replay, a wrong answer.
const CodeAuditFailed = "SRV001"

// CodeLoopTooLarge marks a request loop with more than maxLoopOps
// operations: the daemon answers 422 before scheduling anything.
const CodeLoopTooLarge = "SRV002"

// maxLoopOps caps the operations of one loop a request may schedule.
// The bound passes (RecMII, the start-time relaxations) run in
// near-linear time and poll the request's context like every later
// phase, but the modulo scheduler's placement still grows
// quadratically in a recurrence's length. On a 2-vCPU host one
// `s = s + a[i+k]` recurrence schedules on gp-2c-2b-1p in ~13 ms at
// 1023 operations, ~36 ms at 2047, ~0.12 s at 4095 and ~0.4 s at 8191
// (fs-4c and grid take 65-70% of that). The largest loops of the real
// inputs are far below the cap: 29 operations in Livermore, 20 in the
// compile corpus's source stream, and loopgen.MaxNodes, 161, in the
// synthetic suite and the test fixtures drawn from it.
const maxLoopOps = 4096

// auditError is the error of a finished schedule whose audit returned
// findings. It unwraps to the *diag.List of those findings, so the
// error reply carries them.
type auditError struct {
	diags []diag.Diagnostic
}

func (e *auditError) Error() string {
	return CodeAuditFailed + ": schedule failed its audit: " + e.Unwrap().Error()
}

func (e *auditError) Unwrap() error { return &diag.List{Diags: e.diags} }

// Config tunes a Server. The zero value is usable: default cache
// budget, no per-request timeout, GOMAXPROCS-derived concurrency.
type Config struct {
	// CacheBytes is the result cache budget (cache.DefaultMaxBytes
	// when <= 0).
	CacheBytes int64
	// Timeout bounds each schedule's wall-clock time via the facade's
	// WithTimeout; zero means the client connection is the only bound.
	Timeout time.Duration
	// MaxInflight caps concurrently admitted requests; excess requests
	// are rejected with 429 (4 x GOMAXPROCS when <= 0).
	MaxInflight int
	// Workers is the batch fan-out width (GOMAXPROCS when <= 0).
	Workers int
	// Observer, when set, receives the trace events of every pipeline
	// run the server executes. It is shared across concurrent runs and
	// must be safe for concurrent use.
	Observer obs.Observer
	// NodeID identifies this worker inside a clusterlb fleet; it is
	// reported on /fleetz. Empty is fine for a standalone daemon.
	NodeID string
}

// Server is the daemon's http.Handler. Create one with New.
type Server struct {
	cfg   Config
	cache *cache.Cache
	mux   *http.ServeMux
	sem   chan struct{}
	start time.Time

	requests      atomic.Int64
	scheduled     atomic.Int64
	rejected      atomic.Int64
	auditFailures atomic.Int64

	// sessions holds the warm scheduling sessions every miss draws
	// from.
	sessions *sessionRegistry

	// scheduleOne runs one missed loop on a session drawn from
	// sessions (sessionSchedule); tests substitute it.
	scheduleOne func(ctx context.Context, sess *clustersched.Session, g *clustersched.Graph) (*clustersched.Result, error)

	mu    sync.Mutex
	sched obs.Stats
}

// New builds a Server ready to serve.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:   cfg,
		cache: cache.New(cfg.CacheBytes),
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.MaxInflight),
		start: time.Now(),

		sessions:    newSessionRegistry(),
		scheduleOne: sessionSchedule,
	}
	s.mux.HandleFunc(apiPrefix+"/schedule", s.handleSchedule)
	s.mux.HandleFunc(apiPrefix+"/batch", s.handleBatch)
	s.mux.HandleFunc(apiPrefix+"/compile", s.handleCompile)
	s.mux.HandleFunc(apiPrefix+"/lint", s.handleLint)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/fleetz", s.handleFleetz)
	return s
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// CacheStats exposes the result cache counters (also on /statsz).
//
//schedvet:test-api nothing calls it; the serving transport stays unchanged until the serve baseline is re-measured
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// acquire admits a request into the bounded in-flight set, or reports
// backpressure.
func (s *Server) acquire() (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		s.rejected.Add(1)
		return nil, false
	}
}

func (s *Server) addSchedStats(st obs.Stats) {
	s.mu.Lock()
	s.sched.Add(st)
	s.mu.Unlock()
}

// schedSnapshot returns the aggregated search-effort counters.
func (s *Server) schedSnapshot() obs.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"internal encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeError renders err as a JSON error body, surfacing structured
// lint findings when the error carries a *diag.List.
func writeError(w http.ResponseWriter, status int, err error) {
	resp := ErrorResponse{Error: err.Error()}
	var list *diag.List
	if errors.As(err, &list) {
		resp.Diagnostics = list.Diags
	}
	writeJSON(w, status, resp)
}

// scheduleErrorStatus maps a failed schedule to its HTTP status:
// cancellation from the client connection, deadline from the
// per-request timeout, a failed audit is the daemon's own fault, and
// anything else is an unprocessable input (lint findings, II search
// exhausted).
func scheduleErrorStatus(err error) int {
	var audit *auditError
	switch {
	case errors.As(err, &audit):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

// decodeBody reads and decodes a request body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	raw, err := readBody(w, r)
	return decodeRaw(raw, err, v)
}

// readBody reads the size-capped request body whole. When the read
// fails (an oversized body, a broken connection) it returns the bytes
// read so far with the error.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
}

// decodeRaw decodes a body readBody returned exactly as a decoder
// reading the capped stream would: readErr, the error that cut the
// read short, is raised only once the bytes before it are used up, so
// a value that ends before the cap still decodes and a syntax error
// before it is still the reported one.
func decodeRaw(raw []byte, readErr error, v any) error {
	var src io.Reader = bytes.NewReader(raw)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// scheduleJob is one resolved schedule request: the loop, the machine,
// the facade options, and the cache identity.
type scheduleJob struct {
	name        string
	machineSpec string
	graph       *clustersched.Graph
	machine     *clustersched.Machine
	options     []clustersched.Option
	optID       []string
	key         string
}

// resolveCommon parses the machine spec and option names shared by
// schedule and batch requests, returning the facade options and the
// option part of the cache identity.
func (s *Server) resolveCommon(machineSpec, variant, scheduler string, budget, slack int) (*clustersched.Machine, []clustersched.Option, []string, error) {
	if machineSpec == "" {
		return nil, nil, nil, errors.New("machine spec is required")
	}
	m, err := cli.ParseMachine(machineSpec)
	if err != nil {
		return nil, nil, nil, err
	}
	var opts []clustersched.Option
	if variant == "" {
		variant = "heuristic-iterative"
	}
	v, err := cli.ParseVariant(variant)
	if err != nil {
		return nil, nil, nil, err
	}
	opts = append(opts, clustersched.WithVariant(v))
	if scheduler == "" {
		scheduler = "ims"
	}
	sch, err := cli.ParseScheduler(scheduler)
	if err != nil {
		return nil, nil, nil, err
	}
	opts = append(opts, clustersched.WithScheduler(clustersched.Scheduler(sch)))
	if budget > 0 {
		opts = append(opts, clustersched.WithBudget(budget))
	}
	if slack > 0 {
		opts = append(opts, clustersched.WithMaxIISlack(slack))
	}
	if s.cfg.Timeout > 0 {
		opts = append(opts, clustersched.WithTimeout(s.cfg.Timeout))
	}
	if s.cfg.Observer != nil {
		opts = append(opts, clustersched.WithObserver(s.cfg.Observer))
	}
	// The cache identity must cover everything that changes the
	// response body; the timeout and observer do not.
	return m, opts, optionIdentity(variant, scheduler, budget, slack), nil
}

// optionIdentity is the option part of the cache identity. It is
// shared with KeyForRequest so the balancer's ring routing and the
// handler's cache lookup can never disagree on a key.
func optionIdentity(variant, scheduler string, budget, slack int) []string {
	if variant == "" {
		variant = "heuristic-iterative"
	}
	if scheduler == "" {
		scheduler = "ims"
	}
	return []string{
		strings.ToLower(variant),
		strings.ToLower(scheduler),
		fmt.Sprintf("budget=%d", budget),
		fmt.Sprintf("slack=%d", slack),
	}
}

// nameFor resolves the response (and cache-identity) name of a loop:
// the request override, then the loop's own name, then "loop".
func nameFor(reqName, loopName string) string {
	if reqName != "" {
		return reqName
	}
	if loopName != "" {
		return loopName
	}
	return "loop"
}

// parseLoops loads the request's loops from exactly one of the ddg
// text or loop-language payloads and rejects any loop above
// maxLoopOps with an SRV002 finding.
func parseLoops(ddgText, source string) ([]ddgio.NamedGraph, error) {
	loops, err := readLoops(ddgText, source)
	for _, l := range loops {
		if n := l.Graph.NumNodes(); n > maxLoopOps {
			return nil, &diag.List{Diags: []diag.Diagnostic{{
				Code: CodeLoopTooLarge, Severity: diag.Error, Subject: "loop " + l.Name,
				Message: fmt.Sprintf("loop %q has %d operations, more than the %d a request may schedule", l.Name, n, maxLoopOps),
			}}}
		}
	}
	return loops, err
}

func readLoops(ddgText, source string) ([]ddgio.NamedGraph, error) {
	switch {
	case ddgText != "" && source != "":
		return nil, errors.New("give either ddg or source, not both")
	case ddgText != "":
		loops, err := ddgio.Read(strings.NewReader(ddgText))
		if err != nil {
			return nil, err
		}
		if len(loops) == 0 {
			return nil, errors.New("ddg payload contains no loops")
		}
		return loops, nil
	case source != "":
		compiled, err := frontend.Compile(source)
		if err != nil {
			return nil, err
		}
		loops := make([]ddgio.NamedGraph, len(compiled))
		for i, l := range compiled {
			loops[i] = ddgio.NamedGraph{Name: l.Name, Graph: l.Graph}
		}
		return loops, nil
	default:
		return nil, errors.New("give a loop as ddg text or loop source")
	}
}

// buildJob resolves one loop into a runnable, cacheable job.
func (s *Server) buildJob(name, machineSpec string, loop ddgio.NamedGraph, m *clustersched.Machine, opts []clustersched.Option, optID []string) scheduleJob {
	name = nameFor(name, loop.Name)
	id := append([]string{name}, optID...)
	return scheduleJob{
		name:        name,
		machineSpec: machineSpec,
		graph:       loop.Graph,
		machine:     m,
		options:     opts,
		optID:       optID,
		key:         cache.Key(loop.Graph, m, id...),
	}
}

// ResponseFor flattens a finished schedule into the API response
// shape. It is also what schedview -json prints, so offline and
// service output stay field-compatible.
func ResponseFor(name, machineSpec string, res *clustersched.Result) ScheduleResponse {
	diags := res.Audit()
	if diags == nil {
		diags = []diag.Diagnostic{}
	}
	return ScheduleResponse{
		Name:        name,
		Machine:     machineSpec,
		II:          res.II,
		MII:         res.MII,
		Copies:      res.Copies,
		Stages:      res.Stages(),
		ClusterOf:   res.ClusterOf,
		CycleOf:     res.CycleOf,
		Kernel:      res.Kernel(),
		Stats:       res.Stats(),
		Diagnostics: diags,
	}
}

// runJob serves one job through the cache: on a miss it runs the full
// pipeline under ctx (so a dead client connection aborts the II
// search) on a warm session of the job's machine and options, audits
// the schedule, and stores the encoded response. A schedule with audit
// findings is an *auditError and never stored.
func (s *Server) runJob(ctx context.Context, job scheduleJob) ([]byte, cache.Source, error) {
	return s.cache.GetOrCompute(ctx, job.key, func(ctx context.Context) ([]byte, error) {
		sessions := s.sessions.pool(job.machineSpec, job.machine, job.options, job.optID)
		sess := sessions.get()
		res, err := s.scheduleOne(ctx, sess, job.graph)
		sessions.put(sess)
		if err != nil {
			return nil, err
		}
		s.scheduled.Add(1)
		s.addSchedStats(res.Stats())
		resp := ResponseFor(job.name, job.machineSpec, res)
		if len(resp.Diagnostics) > 0 {
			s.auditFailures.Add(1)
			return nil, &auditError{diags: resp.Diagnostics}
		}
		return json.Marshal(resp)
	})
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	s.requests.Add(1)
	release, ok := s.acquire()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, errors.New("server at max in-flight requests"))
		return
	}
	defer release()

	// The fingerprint tier: a byte-identical repeat of a body that was
	// answered before is served without decoding or parsing it. Only a
	// body read whole is fingerprinted.
	raw, readErr := readBody(w, r)
	var fp cache.Fingerprint
	if readErr == nil {
		fp = cache.FingerprintOf(raw)
		if body, ok := s.cache.GetAlias(fp); ok {
			writeCached(w, cache.Hit, body)
			return
		}
	}

	var req ScheduleRequest
	if err := decodeRaw(raw, readErr, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	m, opts, optID, err := s.resolveCommon(req.Machine, req.Variant, req.Scheduler, req.BudgetPerNode, req.MaxIISlack)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	loops, err := parseLoops(req.DDG, req.Source)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if len(loops) != 1 {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("schedule takes exactly one loop, got %d (use /v1/batch)", len(loops)))
		return
	}
	job := s.buildJob(req.Name, req.Machine, loops[0], m, opts, optID)
	body, src, err := s.runJob(r.Context(), job)
	if err != nil {
		writeError(w, scheduleErrorStatus(err), err)
		return
	}
	// runJob returns only audited replies, so the alias can be
	// followed later without checking what it points at.
	if readErr == nil {
		s.cache.PutAlias(fp, job.key)
	}
	writeCached(w, src, body)
}

// writeCached sends a schedule reply body with its X-Cache state.
func writeCached(w http.ResponseWriter, src cache.Source, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", src.String())
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	s.requests.Add(1)
	release, ok := s.acquire()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, errors.New("server at max in-flight requests"))
		return
	}
	defer release()

	var req BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	m, opts, optID, err := s.resolveCommon(req.Machine, req.Variant, req.Scheduler, req.BudgetPerNode, req.MaxIISlack)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	loops, err := parseLoops(req.DDG, req.Source)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	items := make([]BatchItem, len(loops))
	var hits atomic.Int64
	ctx := r.Context()
	perr := pool.ForEach(ctx, len(loops), s.cfg.Workers, func(i int) {
		job := s.buildJob("", req.Machine, loops[i], m, opts, optID)
		items[i].Name = job.name
		body, src, err := s.runJob(ctx, job)
		if err != nil {
			items[i].Error = err.Error()
			return
		}
		items[i].Result = json.RawMessage(body)
		if src != cache.Miss {
			items[i].Cached = true
			hits.Add(1)
		}
	})
	if perr != nil {
		writeError(w, scheduleErrorStatus(perr), perr)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Items: items, CacheHits: int(hits.Load())})
}

// handleCompile is the whole-translation-unit endpoint: every loop is
// fully compiled — schedule, optional stage scheduling, register
// allocation, emission, optional sim validation — through one
// compile.Executor whose session pool is shared across the request's
// loops. The result cache works at per-loop granularity: a loop
// compiled under the same machine, options, and compile flags is
// served byte-identical from the store no matter which translation
// unit asked first.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	s.requests.Add(1)
	release, ok := s.acquire()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, errors.New("server at max in-flight requests"))
		return
	}
	defer release()

	var req CompileRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	m, opts, optID, err := s.resolveCommon(req.Machine, req.Variant, req.Scheduler, req.BudgetPerNode, req.MaxIISlack)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	loops, err := parseLoops(req.DDG, req.Source)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	// The facade options are pipeline.Options mutators; apply them over
	// the facade's own defaults so the compile path schedules exactly
	// like /v1/schedule under the same request fields.
	popts := pipeline.Options{
		Assign:       assign.Options{Variant: assign.HeuristicIterative},
		CollectStats: true,
	}
	for _, o := range opts {
		o(&popts)
	}
	ex := compile.NewExecutor(m, compile.Options{
		Pipeline:   popts,
		Workers:    s.cfg.Workers,
		StageSched: req.StageSched,
		Pipelined:  req.Pipelined,
		Validate:   req.Validate,
	})
	// The compile flags change the body, so they join the cache
	// identity alongside the scheduling options.
	compileID := append([]string{"compile",
		fmt.Sprintf("stagesched=%v", req.StageSched),
		fmt.Sprintf("pipelined=%v", req.Pipelined),
		fmt.Sprintf("validate=%v", req.Validate)}, optID...)

	items := make([]CompileItem, len(loops))
	var hits, failed atomic.Int64
	ctx := r.Context()
	perr := pool.ForEach(ctx, len(loops), s.cfg.Workers, func(i int) {
		name := nameFor("", loops[i].Name)
		items[i].Name = name
		key := cache.Key(loops[i].Graph, m, append([]string{name}, compileID...)...)
		body, src, err := s.cache.GetOrCompute(ctx, key, func(ctx context.Context) ([]byte, error) {
			lr := ex.One(ctx, frontend.Loop{Name: name, Graph: loops[i].Graph})
			if lr.Err != nil {
				return nil, lr.Err
			}
			s.scheduled.Add(1)
			s.addSchedStats(lr.Outcome.Stats)
			return json.Marshal(CompileResult{
				Name:           name,
				Machine:        req.Machine,
				II:             lr.Outcome.II,
				MII:            lr.Outcome.MII,
				Copies:         lr.Outcome.Assignment.Copies,
				Stages:         lr.Outcome.Schedule.StageCount(),
				Moved:          lr.Moved,
				Factor:         lr.Alloc.Factor,
				RegsPerCluster: lr.Alloc.RegsPerCluster,
				Kernel:         lr.Text,
				Stats:          lr.Outcome.Stats,
			})
		})
		if err != nil {
			items[i].Error = err.Error()
			failed.Add(1)
			return
		}
		items[i].Result = json.RawMessage(body)
		if src != cache.Miss {
			items[i].Cached = true
			hits.Add(1)
		}
	})
	if perr != nil {
		writeError(w, scheduleErrorStatus(perr), perr)
		return
	}
	writeJSON(w, http.StatusOK, CompileResponse{
		Items:     items,
		Scheduled: len(items) - int(failed.Load()),
		Failed:    int(failed.Load()),
		CacheHits: int(hits.Load()),
	})
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	s.requests.Add(1)
	var req LintRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.DDG == "" && req.Source == "" && req.Machine == "" {
		writeError(w, http.StatusBadRequest, errors.New("nothing to lint: give ddg, source, or machine"))
		return
	}
	diags := []diag.Diagnostic{}
	if req.Source != "" {
		diags = append(diags, lint.SourceGraphs("<source>", req.Source)...)
	}
	if req.DDG != "" {
		loops, err := ddgio.ReadLax(strings.NewReader(req.DDG))
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		for _, l := range loops {
			diags = append(diags, lint.LoopGraph("<ddg>", l.Name, l.Graph)...)
		}
	}
	if req.Machine != "" {
		for _, spec := range strings.Split(req.Machine, ",") {
			m, err := cli.ParseMachine(strings.TrimSpace(spec))
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			diags = append(diags, lint.Machine(m)...)
		}
	}
	writeJSON(w, http.StatusOK, LintResponse{Diagnostics: diags, Errors: diag.CountErrors(diags)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Scheduled:     s.scheduled.Load(),
		Rejected:      s.rejected.Load(),
		AuditFailures: s.auditFailures.Load(),
		Inflight:      len(s.sem),
		Cache:         s.cache.StatsDetail(),
		Sessions:      s.sessions.stats(),
		Sched:         s.schedSnapshot(),
	})
}
