package server

import (
	"encoding/json"

	"clustersched/internal/cache"
	"clustersched/internal/diag"
	"clustersched/internal/obs"
)

// API version prefix of every scheduling route.
const apiPrefix = "/v1"

// ScheduleRequest asks the daemon for one clustered modulo schedule.
// Exactly one of DDG (the ddg text format, one loop) or Source (the
// loop language, one loop) must be set. Machine is a spec in the CLI
// mini-language ("gp:2:2:1", "fs:4:4:2", "grid:2", "ring:6:2",
// "unified:8"). The remaining fields mirror the facade options and
// default like them when zero.
type ScheduleRequest struct {
	// Name overrides the loop's own name in the response (and is part
	// of the cache identity).
	Name string `json:"name,omitempty"`
	// DDG is one loop in the ddg text format.
	DDG string `json:"ddg,omitempty"`
	// Source is one loop in the loop language.
	Source string `json:"source,omitempty"`
	// Machine is the target machine spec.
	Machine string `json:"machine"`
	// Variant selects the assignment algorithm: simple,
	// simple-iterative, heuristic, heuristic-iterative (default).
	Variant string `json:"variant,omitempty"`
	// Scheduler selects the phase-two scheduler: ims (default) or sms.
	Scheduler string `json:"scheduler,omitempty"`
	// BudgetPerNode sets the assignment eviction budget (0 = default).
	BudgetPerNode int `json:"budget_per_node,omitempty"`
	// MaxIISlack bounds the II search above MII (0 = default).
	MaxIISlack int `json:"max_ii_slack,omitempty"`
}

// ScheduleResponse is one finished schedule. Identical requests get
// byte-identical responses: the body is cached as encoded bytes, so
// Stats describe the run that originally produced the entry.
type ScheduleResponse struct {
	Name    string `json:"name"`
	Machine string `json:"machine"`
	II      int    `json:"ii"`
	MII     int    `json:"mii"`
	Copies  int    `json:"copies"`
	Stages  int    `json:"stages"`
	// ClusterOf and CycleOf cover the annotated graph: input nodes
	// first (same IDs), then the inserted copies.
	ClusterOf []int `json:"cluster_of"`
	CycleOf   []int `json:"cycle_of"`
	// Kernel is the steady-state kernel text.
	Kernel string `json:"kernel"`
	// Stats are the search-effort counters of the producing run.
	Stats obs.Stats `json:"stats"`
	// Diagnostics is the full schedule audit (verify.Audit via
	// Result.Audit); empty for a valid schedule. The daemon only ever
	// replies with it empty: a schedule with findings is answered with
	// a CodeAuditFailed error instead.
	Diagnostics []diag.Diagnostic `json:"diagnostics"`
}

// BatchRequest schedules every loop of a multi-loop DDG dump or loop
// source file on one machine, fanning out over the daemon's worker
// pool. Options mean the same as in ScheduleRequest.
type BatchRequest struct {
	DDG           string `json:"ddg,omitempty"`
	Source        string `json:"source,omitempty"`
	Machine       string `json:"machine"`
	Variant       string `json:"variant,omitempty"`
	Scheduler     string `json:"scheduler,omitempty"`
	BudgetPerNode int    `json:"budget_per_node,omitempty"`
	MaxIISlack    int    `json:"max_ii_slack,omitempty"`
}

// BatchItem is one loop's outcome inside a batch: either Result (a
// raw ScheduleResponse, byte-identical to what /v1/schedule returns
// for the same request) or Error.
type BatchItem struct {
	Name   string `json:"name"`
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	// Result is the encoded ScheduleResponse; raw so cached bodies are
	// passed through untouched.
	Result json.RawMessage `json:"result,omitempty"`
}

// BatchResponse reports every loop of a batch in input order.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
	// CacheHits counts items served from the result cache.
	CacheHits int `json:"cache_hits"`
}

// CompileRequest compiles a whole translation unit through the
// streaming compile pipeline (internal/compile): every loop goes all
// the way to an emitted kernel — schedule, optional stage scheduling,
// register allocation, emission, optional sim cross-validation —
// with results cached per loop, so two translation units sharing
// loops share the work. Scheduling options mean the same as in
// ScheduleRequest.
type CompileRequest struct {
	DDG           string `json:"ddg,omitempty"`
	Source        string `json:"source,omitempty"`
	Machine       string `json:"machine"`
	Variant       string `json:"variant,omitempty"`
	Scheduler     string `json:"scheduler,omitempty"`
	BudgetPerNode int    `json:"budget_per_node,omitempty"`
	MaxIISlack    int    `json:"max_ii_slack,omitempty"`
	// StageSched runs stage scheduling on every kernel before register
	// allocation.
	StageSched bool `json:"stagesched,omitempty"`
	// Pipelined emits prologue, kernel, and epilogue instead of the
	// steady-state kernel only.
	Pipelined bool `json:"pipelined,omitempty"`
	// Validate cross-checks every emitted kernel with the sim
	// functional executor before replying.
	Validate bool `json:"validate,omitempty"`
}

// CompileResult is one loop fully compiled; it is what a
// CompileItem's raw Result decodes to.
type CompileResult struct {
	Name    string `json:"name"`
	Machine string `json:"machine"`
	II      int    `json:"ii"`
	MII     int    `json:"mii"`
	Copies  int    `json:"copies"`
	Stages  int    `json:"stages"`
	// Moved counts operations stage scheduling relocated (zero unless
	// the request set stagesched).
	Moved int `json:"moved"`
	// Factor and RegsPerCluster describe the MVE register allocation.
	Factor         int   `json:"factor"`
	RegsPerCluster []int `json:"regs_per_cluster"`
	// Kernel is the emitted kernel (or full pipelined listing).
	Kernel string `json:"kernel"`
	// Stats are the search-effort counters of the producing run.
	Stats obs.Stats `json:"stats"`
}

// CompileItem is one loop's outcome inside a compile: either Result
// (a raw CompileResult) or Error. Cached items are passed through
// byte-identical to the run that produced them.
type CompileItem struct {
	Name   string          `json:"name"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// CompileResponse reports every loop of a translation unit in input
// order.
type CompileResponse struct {
	Items     []CompileItem `json:"items"`
	Scheduled int           `json:"scheduled"`
	Failed    int           `json:"failed"`
	CacheHits int           `json:"cache_hits"`
}

// LintRequest runs the static-analysis passes without scheduling:
// loop source, DDG dumps (read laxly, like clusterlint), and machine
// specs (comma-separated) may each be given.
type LintRequest struct {
	DDG     string `json:"ddg,omitempty"`
	Source  string `json:"source,omitempty"`
	Machine string `json:"machine,omitempty"`
}

// LintResponse carries every finding. Errors counts the
// Error-severity subset (the daemon's analogue of clusterlint's exit
// status).
type LintResponse struct {
	Diagnostics []diag.Diagnostic `json:"diagnostics"`
	Errors      int               `json:"errors"`
}

// StatsResponse is the /statsz snapshot: process-level request
// counters, the result cache, and the scheduling effort aggregated
// over every pipeline run the daemon executed (cache hits add
// nothing — no pipeline ran).
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Scheduled     int64   `json:"scheduled"`
	Rejected      int64   `json:"rejected"`
	// AuditFailures counts finished schedules whose audit returned
	// findings: answered with a CodeAuditFailed error, never cached.
	AuditFailures int64        `json:"audit_failures"`
	Inflight      int          `json:"inflight"`
	Cache         cache.Stats  `json:"cache"`
	Sessions      SessionStats `json:"sessions"`
	Sched         obs.Stats    `json:"sched"`
}

// SessionStats counts where the scheduling sessions of cache misses
// came from: Reused drawn warm from the daemon's session registry,
// Built made for a registered (machine, options) key whose free list
// was empty, Unpooled made and dropped because the registry was full.
type SessionStats struct {
	Reused   int64 `json:"reused"`
	Built    int64 `json:"built"`
	Unpooled int64 `json:"unpooled"`
}

// FleetzResponse is the /fleetz heartbeat snapshot a clusterlb
// balancer polls: the worker's identity, queue depth (Inflight out of
// MaxInflight), and the cache picture with the per-shard breakdown.
type FleetzResponse struct {
	// ID is the worker's configured node identity (Config.NodeID).
	ID            string  `json:"id"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Accepting is false only while the worker is draining.
	Accepting bool `json:"accepting"`
	// Inflight is the admitted-request depth the balancer's
	// power-of-k-choices placement scores against.
	Inflight    int   `json:"inflight"`
	MaxInflight int   `json:"max_inflight"`
	Requests    int64 `json:"requests"`
	Scheduled   int64 `json:"scheduled"`
	Rejected    int64 `json:"rejected"`
	// Cache includes the per-shard occupancy/eviction rows
	// (cache.StatsDetail), so shard skew is visible fleet-wide.
	Cache cache.Stats `json:"cache"`
}

// ErrorResponse is the body of every non-2xx JSON reply.
type ErrorResponse struct {
	Error string `json:"error"`
	// Diagnostics carry the structured findings when the failure came
	// from input lint.
	Diagnostics []diag.Diagnostic `json:"diagnostics,omitempty"`
}
