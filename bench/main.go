// Command bench is the repository's benchmark. It runs one of four
// seeded workloads — suite-sched, corpus-compile, serve-cold and
// serve-hot — for a fixed window, checks every output against an
// independent oracle, and prints each end-to-end metric by name and
// unit. With --trace 1 it instead prints the per-layer ledger from a
// traced run that wraps each layer's public entry point. Without
// --workload, or with --repeat N, it runs the workloads in fresh child
// processes and prints each metric's median and quartiles.
//
// Run it from the repository root through bench/run.sh, which builds
// the benchmark and clusterd first:
//
//	bash bench/run.sh --workload suite-sched --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --repeat 5
//
// See bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"clustersched/internal/loopgen"
)

// config is what one workload run needs to know.
type config struct {
	seed     int64
	window   time.Duration
	trace    bool
	quick    bool
	clusterd string
	spans    string
}

// suiteCount is the number of synthetic loops the suite-based
// workloads generate: the paper's 1327, or a handful in quick mode.
func (c config) suiteCount() int {
	if c.quick {
		return 40
	}
	return loopgen.DefaultCount
}

// setups is how many times a run sets its workload up. Each set-up is
// timed the same way, from the call of its set-up function until the
// first operation can run, and setup_s is the median of them.
func (c config) setups() int {
	if c.quick {
		return 1
	}
	return 3
}

// instance is one set-up workload, ready to time.
type instance interface {
	// callers is the number of closed-loop callers: each runs on its
	// own goroutine and waits for one operation's result before
	// starting the next.
	callers() int
	// op runs operation i on caller c and checks its output. It
	// returns the time of the operation alone and whether it failed
	// the way a user would see (unschedulable loop, 429, timeout,
	// transport error). A non-nil error is an oracle mismatch. With tr
	// non-nil it also records the op's spans and replays it through
	// each layer's public entry point.
	op(ctx context.Context, c, i int, tr *tracer) (time.Duration, bool, error)
	// output is the quality of the workload's outputs, measured in the
	// untimed warm-up pass.
	output() quality
	// peakRSS is the peak resident memory of the process doing the
	// work.
	peakRSS() (metric, error)
	// beginTrace runs right before the traced window.
	beginTrace(ctx context.Context) error
	// layers returns the per-layer ledger of the traced window.
	layers(ctx context.Context, tracers []*tracer) (map[string]metric, error)
	close() error
}

// workload names one seeded input set and says why it is measured.
type workload struct {
	name, why string
	setup     func(ctx context.Context, cfg config) (instance, error)
}

var workloads = []workload{
	{"suite-sched", "Table-1 suite on three machines in-process: MII, order, assign and IMS do the work, with the grid's eviction tail", setupSuite},
	{"corpus-compile", "whole-TU compile of Livermore plus generated loops on 2 workers: frontend, stagesched, regalloc, emit and the stage graph", setupCorpus},
	{"serve-cold", "clusterd cache misses from 2 closed-loop callers: decode, parse, cache insert, pipeline, audit and encode", setupServeCold},
	{"serve-hot", "clusterd with a warm cache, 90% repeats and 10% fresh misses: the read path that skips the scheduler", setupServeHot},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run in this process (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds  = flag.Float64("seconds", 25, "length of the timed window in seconds")
		traceOn  = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer ledger instead of the end-to-end metrics")
		spans    = flag.String("spans", "", "with --trace 1, write every span to this file as JSON lines")
		repeat   = flag.Int("repeat", 0, "run the selected workloads this many times in child processes and print medians and quartiles")
		quick    = flag.Bool("quick", false, "smoke run: a 40-loop suite and one set-up; refused percentiles are left out")
		clusterd = flag.String("clusterd", "", "clusterd binary for the serve workloads (default: build it)")
	)
	flag.Parse()
	cfg := config{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *traceOn == 1,
		quick:    *quick,
		clusterd: *clusterd,
		spans:    *spans,
	}
	if err := run(cfg, *name, *traceOn, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg config, name string, traceFlag, repeat int) error {
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if cfg.window <= 0 {
		return errors.New("--seconds must be positive")
	}
	if cfg.spans != "" && !cfg.trace {
		return errors.New("--spans needs --trace 1")
	}
	selected := workloads
	if name != "" {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.clusterd == "" && needsDaemon(selected) {
		dir, err := os.MkdirTemp("", "bench-clusterd")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if cfg.clusterd, err = buildClusterd(ctx, dir); err != nil {
			return err
		}
	}
	if name != "" && repeat == 0 {
		rep, err := runWorkload(ctx, selected[0], cfg)
		if err != nil {
			return err
		}
		return rep.print(os.Stdout)
	}
	return runRepeat(ctx, os.Stdout, cfg, selected, max(repeat, 1))
}

func needsDaemon(ws []workload) bool {
	for _, w := range ws {
		if strings.HasPrefix(w.name, "serve-") {
			return true
		}
	}
	return false
}

// buildClusterd builds the daemon into dir and returns its path.
func buildClusterd(ctx context.Context, dir string) (string, error) {
	path := dir + "/clusterd"
	cmd := exec.CommandContext(ctx, "go", "build", "-o", path, "clustersched/cmd/clusterd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building clusterd: %w", err)
	}
	return path, nil
}

// report is one workload run's result.
type report struct {
	workload  string
	cfg       config
	defs      []metricDef
	metrics   map[string]metric
	attempted int
	failed    int
	samples   int
}

// runWorkload sets w up cfg.setups() times, keeps the last set-up, and
// measures it: the end-to-end metrics from one untraced window, or,
// with cfg.trace, the per-layer ledger from a traced window that
// follows an untraced one of the same length.
func runWorkload(ctx context.Context, w workload, cfg config) (*report, error) {
	if err := mapProbe(); err != nil {
		return nil, err
	}
	var (
		inst   instance
		setups []float64
	)
	for k := 0; k < cfg.setups(); k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			// Drop the closed set-up before the next one, so the next
			// starts from the first one's heap and peak_rss_mib never
			// holds two of them.
			inst = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(ctx, cfg); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if err := inst.close(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		}
	}()

	rep := &report{workload: w.name, cfg: cfg, metrics: make(map[string]metric)}
	next := 0
	if !cfg.trace {
		win, _, err := measure(ctx, inst, cfg.window, false, true, &next)
		if err != nil {
			return nil, err
		}
		rep.defs = endToEnd
		rep.attempted, rep.failed, rep.samples = win.attempted, win.failed, len(win.lat)
		if err := win.timings(rep.metrics, setups, cfg.quick); err != nil {
			return nil, err
		}
		if rep.metrics["peak_rss_mib"], err = inst.peakRSS(); err != nil {
			return nil, err
		}
		for k, v := range inst.output().endToEnd() {
			rep.metrics[k] = v
		}
		return rep, rep.complete()
	}

	// Neither window of the traced run is calibrated: the probes evict
	// the callers' caches, and only the untraced half would pay for it.
	plain, _, err := measure(ctx, inst, cfg.window/2, false, false, &next)
	if err != nil {
		return nil, err
	}
	if err := inst.beginTrace(ctx); err != nil {
		return nil, err
	}
	traced, tracers, err := measure(ctx, inst, cfg.window/2, true, false, &next)
	if err != nil {
		return nil, err
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, tracers); err != nil {
			return nil, err
		}
	}
	rep.defs = perLayer
	rep.attempted = plain.attempted + traced.attempted
	rep.failed = plain.failed + traced.failed
	rep.samples = len(traced.lat)
	if rep.metrics, err = inst.layers(ctx, tracers); err != nil {
		return nil, err
	}
	p, _ := percentile(sortedCopy(plain.lat), 0.5)
	t, _ := percentile(sortedCopy(traced.lat), 0.5)
	rep.metrics["bench.trace_overhead_frac"] = metric{t/p - 1, fmt.Sprintf("traced op p50 %.1f us (n=%d) over untraced %.1f us (n=%d)", t, len(traced.lat), p, len(plain.lat))}
	for _, d := range perLayer {
		if _, ok := rep.metrics[d.name]; !ok {
			rep.metrics[d.name] = metric{0, "layer not on this workload's path"}
		}
	}
	return rep, rep.complete()
}

// complete checks that the report carries every metric of its
// catalogue, each a finite number; quick runs may lack a refused
// latency percentile.
func (r *report) complete() error {
	for _, d := range r.defs {
		m, ok := r.metrics[d.name]
		if !ok {
			if r.cfg.quick && strings.HasPrefix(d.name, "lat_") {
				continue
			}
			return fmt.Errorf("%s: metric %s missing", r.workload, d.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, d.name, m.value)
		}
	}
	return nil
}

// window is one timed run of operations.
type window struct {
	lat       []float64 // per-op latency in µs; +Inf for a failed op
	wall      time.Duration
	paused    time.Duration   // time the callers stood still for probes
	probes    []time.Duration // calibration probe times
	attempted int
	failed    int
}

// measure runs operations on inst's callers until d has passed.
// Operation indexes continue from *next, so names a workload must
// never repeat stay unique across windows. A calibrated window pauses
// its callers between operations for the host-speed probes.
func measure(ctx context.Context, inst instance, d time.Duration, traced, calibrate bool, next *int) (window, []*tracer, error) {
	n := inst.callers()
	var (
		lats    = make([][]float64, n)
		tracers = make([]*tracer, n)
		counter atomic.Int64
		stop    atomic.Bool
		errOnce sync.Once
		opErr   error
		wg      sync.WaitGroup
		gate    sync.RWMutex // callers hold it shared, a probe exclusively
		done    = make(chan struct{})
		probed  = make(chan [][2]time.Time, 1)
	)
	counter.Store(int64(*next))
	start := time.Now()
	deadline := start.Add(d)
	go func() {
		var ps [][2]time.Time
		defer func() { probed <- ps }()
		for calibrate {
			gate.Lock()
			t := time.Now()
			probe()
			ps = append(ps, [2]time.Time{t, time.Now()})
			gate.Unlock()
			select {
			case <-done:
				return
			case <-time.After(probeEvery):
			}
		}
	}()
	for c := 0; c < n; c++ {
		if traced {
			tracers[c] = newTracer(start)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(counter.Add(1) - 1)
				gate.RLock()
				lat, failed, err := inst.op(ctx, c, i, tracers[c])
				gate.RUnlock()
				if err != nil {
					errOnce.Do(func() { opErr = err })
					stop.Store(true)
					return
				}
				us := float64(lat.Nanoseconds()) / 1e3
				if failed {
					us = math.Inf(1)
				}
				lats[c] = append(lats[c], us)
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()
	close(done)
	probes := <-probed
	*next = int(counter.Load())
	if opErr != nil {
		return window{}, nil, opErr
	}
	if err := ctx.Err(); err != nil {
		return window{}, nil, err
	}
	w := window{wall: end.Sub(start)}
	for _, p := range probes {
		w.probes = append(w.probes, p[1].Sub(p[0]))
		if to := p[1]; p[0].Before(end) {
			if to.After(end) {
				to = end
			}
			w.paused += to.Sub(p[0])
		}
	}
	for _, l := range lats {
		w.lat = append(w.lat, l...)
	}
	w.attempted = len(w.lat)
	for _, v := range w.lat {
		if math.IsInf(v, 1) {
			w.failed++
		}
	}
	if w.attempted == 0 {
		return window{}, nil, errors.New("no operation completed in the window")
	}
	return w, tracers, nil
}

// timings adds setup_s (the median of setups, in seconds), ops_per_s
// and the latency percentiles to m. A p99 with fewer than minBeyond
// samples beyond it is refused: a hard error, except in quick mode
// where it is left out.
//
// Every timing is scaled to the reference host's speed by the window's
// host factor; each note gives the raw value.
func (w window) timings(m map[string]metric, setups []float64, quick bool) error {
	f := hostFactor(w.probes)
	setup := median(setups)
	m["setup_s"] = metric{setup / f, fmt.Sprintf("raw %.4f: median of %d set-ups", setup, len(setups))}
	busy := w.wall - w.paused
	raw := float64(w.attempted) / busy.Seconds()
	m["ops_per_s"] = metric{raw * f, fmt.Sprintf("raw %.1f: %d ops in %.2f s; host factor %.4f over %d probes", raw, w.attempted, busy.Seconds(), f, len(w.probes))}
	s := sortedCopy(w.lat)
	for _, p := range []struct {
		name string
		q    float64
	}{{"lat_p50_us", 0.5}, {"lat_p99_us", 0.99}} {
		v, ok := percentile(s, p.q)
		if !ok {
			if quick {
				continue
			}
			return fmt.Errorf("%s refused: %d samples leave fewer than %d beyond it; lengthen --seconds", p.name, len(s), minBeyond)
		}
		if math.IsInf(v, 1) {
			return fmt.Errorf("%s undefined: %d of %d ops failed", p.name, w.failed, w.attempted)
		}
		m[p.name] = metric{v / f, fmt.Sprintf("raw %.1f, n=%d", v, len(s))}
	}
	return nil
}

// provenance is printed with every result, so numbers from different
// hosts or settings are never compared by accident.
type provenance struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick,omitempty"`
	Ops      int     `json:"ops"`
	// Samples counts the latency samples of an end-to-end run, or the
	// traced ops a per-layer ledger comes from.
	Samples    int    `json:"samples"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitSHA     string `json:"git_sha,omitempty"`
}

// gitSHA returns the commit of the git work tree rooted at the current
// directory, or "" when there is none; git is not allowed to look
// above the current directory.
func gitSHA() string {
	wd, err := os.Getwd()
	if err != nil {
		return ""
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// print writes the provenance line, one line per metric with its unit
// and sample basis, and last the result object.
func (r *report) print(w io.Writer) error {
	prov, err := json.Marshal(provenance{
		Workload: r.workload, Seed: r.cfg.seed, Seconds: r.cfg.window.Seconds(),
		Trace: r.cfg.trace, Quick: r.cfg.quick, Ops: r.attempted, Samples: r.samples,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GitSHA: gitSHA(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", prov)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.attempted, r.failed, make(map[string]value)}
	for _, d := range r.defs {
		m, ok := r.metrics[d.name]
		if !ok {
			fmt.Fprintf(w, "%-30s %16s %-6s refused\n", d.name, "-", d.unit)
			continue
		}
		fmt.Fprintf(w, "%-30s %16.4f %-6s %s\n", d.name, m.value, d.unit, m.note)
		out.Metrics[d.name] = value{m.value, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
