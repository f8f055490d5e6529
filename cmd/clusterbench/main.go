// Clusterbench regenerates the paper's evaluation: every figure and
// table of Section 6, as ΔII histograms of the clustered machines
// against their equally wide unified baselines.
//
// Usage:
//
//	clusterbench                 # run every experiment on the full suite
//	clusterbench -exp fig14      # one experiment
//	clusterbench -count 200      # smaller suite for a quick look
//	clusterbench -scheduler sms  # use the swing modulo scheduler
//	clusterbench -table1         # print the loop-suite statistics
//	clusterbench -stats          # add search-effort statistics per row
//	clusterbench -trace ev.json  # stream every pipeline event as JSON lines
//
// Performance is measured by the bench/ harness (bench/README.md), not
// here.
//
// Ctrl-C cancels the run: in-flight loops finish, no new work starts,
// and the process exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"clustersched/internal/diag"
	"clustersched/internal/experiments"
	"clustersched/internal/lint"
	livermorepkg "clustersched/internal/livermore"
	"clustersched/internal/loopgen"
	"clustersched/internal/obs"
	"clustersched/internal/pipeline"
	"clustersched/internal/report"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment ID to run (fig12..fig19, table3, grid); empty = all")
		seed      = flag.Int64("seed", 1, "loop suite seed")
		count     = flag.Int("count", loopgen.DefaultCount, "number of loops in the suite")
		scheduler = flag.String("scheduler", "ims", "phase-two scheduler: ims or sms")
		table1    = flag.Bool("table1", false, "print Table 1 loop statistics and exit")
		workers   = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		ext       = flag.Bool("ext", false, "run the extension experiments (ablations, ring topology) instead of the paper set")
		registers = flag.Bool("registers", false, "run the register-pressure study and exit")
		csv       = flag.Bool("csv", false, "emit results as CSV instead of tables")
		livermore = flag.Bool("livermore", false, "run the real Livermore-kernel study and exit")
		markdown  = flag.Bool("markdown", false, "emit a full Markdown reproduction report (-ext adds the extension sections)")
		statsFlag = flag.Bool("stats", false, "collect search-effort statistics and print them per row (implied by -trace)")
		trace     = flag.String("trace", "", "write a JSON-lines event stream of every pipeline run to this file (- for stderr)")
		warmstart = flag.String("warmstart", "on", "warm-started II search: on or off (off forces every candidate II to assign from scratch)")
	)
	flag.Parse()

	// Reject flag combinations whose extra flags would be silently
	// ignored by the mode dispatch below.
	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if conflicts := flagConflicts(setFlags); len(conflicts) > 0 {
		diag.Text(os.Stderr, conflicts)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	loops := loopgen.Suite(loopgen.Options{Seed: *seed, Count: *count})
	if *table1 {
		fmt.Print(loopgen.Stats(loops).Table())
		return
	}

	var warm bool
	switch strings.ToLower(*warmstart) {
	case "on", "":
		warm = true
	case "off":
		warm = false
	default:
		fmt.Fprintf(os.Stderr, "clusterbench: unknown -warmstart %q (want on or off)\n", *warmstart)
		os.Exit(2)
	}

	opts := experiments.Options{Parallelism: *workers, CollectStats: *statsFlag, DisableWarmStart: !warm}
	switch strings.ToLower(*scheduler) {
	case "ims":
		opts.Scheduler = pipeline.IMS
	case "sms":
		opts.Scheduler = pipeline.SMS
	default:
		fmt.Fprintf(os.Stderr, "clusterbench: unknown scheduler %q (want ims or sms)\n", *scheduler)
		os.Exit(2)
	}
	if *trace != "" {
		j, finish, err := obs.CreateJSON(*trace)
		if err != nil {
			fatal(err)
		}
		// Every mode below returns through here, so a trace cut short
		// fails the run.
		defer func() {
			if err := finish(); err != nil {
				fatal(fmt.Errorf("trace: %w", err))
			}
		}()
		opts.Observer = j
	}

	if *markdown {
		if err := report.Markdown(os.Stdout, loops, report.Options{Run: opts, Extensions: *ext}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *livermore {
		kernels, err := livermorepkg.Kernels()
		if err != nil {
			fatal(err)
		}
		rep, err := experiments.LivermoreStudyContext(ctx, kernels, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Report())
		return
	}

	if *registers {
		study, err := experiments.RegisterStudyContext(ctx, loops, opts)
		if err != nil {
			fatal(err)
		}
		if *csv {
			fmt.Print(study.CSV())
		} else {
			fmt.Print(study.Report())
		}
		return
	}

	if *exp == "baseline" {
		res, err := experiments.BaselineComparisonContext(ctx, loops, opts)
		if err != nil {
			fatal(err)
		}
		if *csv {
			fmt.Print(res.CSV())
		} else {
			fmt.Println(res.Report())
		}
		return
	}
	configs := experiments.All()
	if *ext {
		configs = experiments.Extensions()
	}
	if *exp != "" {
		cfg, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "clusterbench: unknown experiment %q (or 'baseline')\n", *exp)
			os.Exit(2)
		}
		configs = []experiments.Config{cfg}
	}
	// Lint every machine the selected experiments will run before
	// starting: a broken configuration fails fast with diagnostics
	// here instead of mid-run pipeline errors on every loop.
	var machineDiags []diag.Diagnostic
	for _, cfg := range configs {
		for _, row := range cfg.Rows {
			machineDiags = append(machineDiags, lint.Machine(row.Machine)...)
		}
	}
	if diag.CountErrors(machineDiags) > 0 {
		diag.Text(os.Stderr, machineDiags)
		os.Exit(1)
	}
	for _, cfg := range configs {
		var (
			res experiments.Result
			err error
		)
		if cfg.ID == "abl-order" {
			// The ordering ablation needs ID-shuffled loops; see the
			// RunOrderingAblation documentation.
			res, err = experiments.RunOrderingAblationContext(ctx, loops, opts)
		} else {
			res, err = experiments.RunContext(ctx, cfg, loops, opts)
		}
		if *csv {
			fmt.Print(res.CSV())
		} else {
			fmt.Println(res.Report())
			if opts.CollectStats || opts.Observer != nil {
				for _, row := range res.Rows {
					fmt.Printf("  stats %-30s %s\n", row.Label, row.Stats.String())
				}
				fmt.Println()
			}
		}
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
