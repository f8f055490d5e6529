// Clusterc is the end-to-end loop compiler: it reads loops in the
// small loop language, compiles them to dependence graphs, software-
// pipelines them onto a clustered machine, and prints the kernels.
//
// Usage:
//
//	clusterc kernels.loop
//	clusterc -machine fs:4:4:2 -pipeline kernels.loop
//	clusterc -trace - -timeout 500ms kernels.loop
//	clusterc -O -workers 4 kernels.loop
//	echo 'loop dot { s = s + a[i]*b[i] }' | clusterc -
//
// -O selects the whole-translation-unit compile path
// (internal/compile): the loops stream through lint → schedule →
// stagesched → regalloc → emit as a stage-parallel pipeline with
// -workers scheduling workers, and the kernels print in input order —
// stdout is byte-identical for every worker count. -v adds the
// per-stage time breakdown and aggregate search stats on stderr.
//
// The language: one index variable i, array accesses a[i+k] (loads and
// stores), scalars carrying values across statements (and across
// iterations when read before their definition — reductions), loop
// invariants free in registers, constants folded, sqrt() as the only
// intrinsic. See internal/frontend for the full semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"clustersched"
	"clustersched/internal/assign"
	"clustersched/internal/cli"
	"clustersched/internal/compile"
	"clustersched/internal/diag"
	"clustersched/internal/lint"
	"clustersched/internal/obs"
	"clustersched/internal/pipeline"
)

func main() {
	var (
		machineSpec = flag.String("machine", "gp:2:2:1", "machine: gp:C:B:P, fs:C:B:P, grid:P, ring:C:P, or unified:W")
		pipelined   = flag.Bool("pipeline", false, "print prologue and epilogue, not just the kernel")
		stages      = flag.Bool("stages", false, "run stage scheduling before printing")
		verbose     = flag.Bool("v", false, "also print placement, register, and search-effort details")
		nolint      = flag.Bool("nolint", false, "skip only the pre-compilation source lint; the scheduler still rejects graphs with lint errors")
		trace       = flag.String("trace", "", "write a JSON-lines event stream of the schedule search to this file (- for stderr)")
		timeout     = flag.Duration("timeout", 0, "per-loop scheduling deadline (0 = none), e.g. 500ms")
		wholeTU     = flag.Bool("O", false, "whole-translation-unit mode: stream all loops through the stage-parallel compile pipeline")
		workers     = flag.Int("workers", 0, "workers of each wide -O stage: build, schedule, back end (0 = GOMAXPROCS); output is identical for every value")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: clusterc [flags] <file.loop | ->")
		os.Exit(2)
	}

	var (
		src []byte
		err error
	)
	name := flag.Arg(0)
	if name == "-" {
		src, err = io.ReadAll(os.Stdin)
		name = "<stdin>"
	} else {
		src, err = os.ReadFile(name)
	}
	if err != nil {
		fatal(err)
	}

	m, err := cli.ParseMachine(*machineSpec)
	if err != nil {
		fatal(err)
	}
	// Fail fast with full diagnostics — every finding, with stable
	// codes — instead of the compiler's first error. Warnings print
	// but do not block.
	if !*nolint {
		diags := lint.Source(name, string(src))
		diags = append(diags, lint.Machine(m)...)
		diag.Text(os.Stderr, diags)
		if diag.CountErrors(diags) > 0 {
			os.Exit(1)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *wholeTU {
		compileTU(ctx, string(src), m, tuConfig{
			workers: *workers, stages: *stages,
			pipelined: *pipelined, verbose: *verbose,
			trace: *trace, timeout: *timeout,
		})
		return
	}

	loops, err := clustersched.CompileSource(string(src))
	if err != nil {
		fatal(err)
	}

	var schedOpts []clustersched.Option
	if *timeout > 0 {
		schedOpts = append(schedOpts, clustersched.WithTimeout(*timeout))
	}
	if *trace != "" {
		w := os.Stderr
		if *trace != "-" {
			f, err := os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		schedOpts = append(schedOpts, clustersched.WithObserver(clustersched.NewJSONObserver(w)))
	}

	for _, l := range loops {
		fmt.Printf("=== %s (%d ops) on %s ===\n", l.Name, l.Graph.NumNodes(), m)
		res, err := clustersched.ScheduleContext(ctx, l.Graph, m, schedOpts...)
		if err != nil {
			if ctx.Err() != nil {
				fatal(fmt.Errorf("interrupted: %w", err))
			}
			fmt.Printf("  no schedule: %v\n\n", err)
			continue
		}
		if *stages {
			res.OptimizeStages()
		}
		if err := res.Validate(); err != nil {
			fatal(fmt.Errorf("internal error: invalid schedule: %w", err))
		}
		fmt.Printf("II=%d (MII=%d), %d copies, %d stages\n", res.II, res.MII, res.Copies, res.Stages())
		if *verbose {
			for n := 0; n < res.Annotated.NumNodes(); n++ {
				node := res.Annotated.Nodes[n]
				fmt.Printf("  n%-3d %-7s cluster %d  cycle %3d  %s\n",
					n, node.Kind, res.ClusterOf[n], res.CycleOf[n], node.Name)
			}
			alloc := res.Registers()
			fmt.Printf("registers per cluster %v (MVE factor %d)\n", alloc.RegsPerCluster, alloc.Factor)
			fmt.Printf("search: %s\n", res.Stats())
		}
		if *pipelined {
			fmt.Println(res.Pipelined())
		} else {
			fmt.Println(res.Kernel())
		}
		fmt.Println()
	}
}

// tuConfig carries the flags the whole-TU path consumes.
type tuConfig struct {
	workers   int
	stages    bool
	pipelined bool
	verbose   bool
	trace     string
	timeout   time.Duration
}

// compileTU is the -O path: the whole translation unit streams
// through internal/compile's stage-parallel pipeline. Kernels print
// to stdout in input order as they retire — byte-identical for every
// worker count — and the per-stage breakdown goes to stderr under -v.
func compileTU(ctx context.Context, src string, m *clustersched.Machine, cfg tuConfig) {
	opts := compile.Options{
		Pipeline: pipeline.Options{
			Assign:       assign.Options{Variant: assign.HeuristicIterative},
			CollectStats: true,
			Timeout:      cfg.timeout,
		},
		Workers:    cfg.workers,
		StageSched: cfg.stages,
		Pipelined:  cfg.pipelined,
	}
	if cfg.trace != "" {
		w := os.Stderr
		if cfg.trace != "-" {
			f, err := os.Create(cfg.trace)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		opts.Pipeline.Observer = obs.NewJSON(w)
		// A shared event stream from concurrent schedulers would
		// interleave; tracing serializes the schedule stage.
		if opts.Workers != 1 {
			fmt.Fprintln(os.Stderr, "clusterc: -trace forces -workers 1 (serialized event stream)")
			opts.Workers = 1
		}
	}
	opts.Emit = func(l *compile.LoopResult) {
		fmt.Printf("=== %s (%d ops) on %s ===\n", l.Name, l.Graph.NumNodes(), m)
		if l.Err != nil {
			fmt.Printf("  no schedule: %v\n\n", l.Err)
			return
		}
		fmt.Printf("II=%d (MII=%d), %d copies, %d stages\n",
			l.Outcome.II, l.Outcome.MII, l.Outcome.Assignment.Copies, l.Outcome.Schedule.StageCount())
		if cfg.verbose {
			fmt.Printf("registers per cluster %v (MVE factor %d)\n", l.Alloc.RegsPerCluster, l.Alloc.Factor)
		}
		fmt.Println(l.Text)
	}

	res, err := compile.Source(ctx, src, m, opts)
	if err != nil {
		if res == nil {
			fatal(err)
		}
		fatal(fmt.Errorf("interrupted: %w", err))
	}
	if cfg.verbose {
		fmt.Fprintf(os.Stderr, "frontend: %d loops, %s parse and build summed over workers\n", len(res.Loops), time.Duration(res.FrontendNS))
		for _, st := range res.Stages {
			fmt.Fprintf(os.Stderr, "stage %-10s %3d loops  %s\n", st.Stage, st.Loops, time.Duration(st.NS))
		}
		fmt.Fprintf(os.Stderr, "scheduled %d, failed %d\n", res.Scheduled, res.Failed)
		fmt.Fprintf(os.Stderr, "search: %s\n", res.Stats)
	}
	if res.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
