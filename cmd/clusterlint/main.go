// Clusterlint is the static-analysis front door: it lints loop-language
// files, DDG text dumps, and machine configurations, reporting every
// finding as a structured diagnostic instead of stopping at the first
// error the way the compiler does.
//
// Usage:
//
//	clusterlint kernels.loop                 # lint loop source
//	clusterlint loops.ddg                    # lint a DDG text dump
//	clusterlint -machine gp:4:4:2 file.loop  # also lint a machine spec
//	clusterlint -machine builtin             # lint every built-in config
//	clusterlint -json file.loop              # machine-readable output
//	echo 'loop d { s = s + a[i] }' | clusterlint -
//
// Exit status: 0 when no findings block use of the input, 1 when any
// Error-severity finding was reported (or any Warning under -werror),
// 2 on usage or I/O problems.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"clustersched/internal/cli"
	"clustersched/internal/ddgio"
	"clustersched/internal/diag"
	"clustersched/internal/experiments"
	"clustersched/internal/lint"
	"clustersched/internal/machine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: it lints every requested input and
// returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machineSpec = fs.String("machine", "", "comma-separated machine specs to lint (gp:C:B:P, fs:C:B:P, grid:P, ring:C:P, unified:W), or 'builtin' for every built-in configuration")
		jsonOut     = fs.Bool("json", false, "emit findings as a JSON array")
		werror      = fs.Bool("werror", false, "treat warnings as errors for the exit status")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: clusterlint [-machine spec[,spec...]|builtin] [-json] [-werror] [file.loop|file.ddg|-]...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 && *machineSpec == "" {
		fs.Usage()
		return 2
	}

	var diags []diag.Diagnostic
	for _, path := range fs.Args() {
		fileDiags, err := lintFile(path, stdin)
		if err != nil {
			fmt.Fprintf(stderr, "clusterlint: %v\n", err)
			return 2
		}
		diags = append(diags, fileDiags...)
	}
	if *machineSpec != "" {
		machineDiags, err := lintMachines(*machineSpec)
		if err != nil {
			fmt.Fprintf(stderr, "clusterlint: %v\n", err)
			return 2
		}
		diags = append(diags, machineDiags...)
	}

	diag.Sort(diags)
	if *jsonOut {
		if err := diag.JSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "clusterlint: %v\n", err)
			return 2
		}
	} else {
		diag.Text(stdout, diags)
		if len(diags) == 0 {
			fmt.Fprintln(stdout, "clusterlint: no findings")
		}
	}
	return diag.ExitCode(diags, *werror)
}

// lintFile dispatches one input file on its format: ".ddg" is the DDG
// text dump format, everything else (including stdin via "-") is loop
// source.
func lintFile(path string, stdin io.Reader) ([]diag.Diagnostic, error) {
	if strings.HasSuffix(path, ".ddg") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return lintDDG(path, f)
	}
	var (
		src []byte
		err error
	)
	if path == "-" {
		src, err = io.ReadAll(stdin)
		path = "<stdin>"
	} else {
		src, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return lint.SourceGraphs(path, string(src)), nil
}

// lintDDG lints every loop of a DDG text dump. The dump is read
// laxly: semantically broken graphs are analysed, not refused.
func lintDDG(path string, r io.Reader) ([]diag.Diagnostic, error) {
	loops, err := ddgio.ReadLax(r)
	if err != nil {
		return nil, err
	}
	var diags []diag.Diagnostic
	for _, l := range loops {
		diags = append(diags, lint.LoopGraph(path, l.Name, l.Graph)...)
	}
	return diags, nil
}

// lintMachines lints the comma-separated machine specs, or every
// built-in configuration for the special spec "builtin".
func lintMachines(spec string) ([]diag.Diagnostic, error) {
	var configs []*machine.Config
	if spec == "builtin" {
		configs = builtinMachines()
	} else {
		for _, s := range strings.Split(spec, ",") {
			m, err := cli.ParseMachine(strings.TrimSpace(s))
			if err != nil {
				return nil, err
			}
			configs = append(configs, m)
		}
	}
	var diags []diag.Diagnostic
	for _, m := range configs {
		for _, d := range lint.Machine(m) {
			if d.Subject == "" {
				d.Subject = m.Name
			}
			diags = append(diags, d)
		}
	}
	return diags, nil
}

// builtinMachines gathers every machine configuration the repository
// ships: the canonical instances of each constructor family in
// internal/machine/configs.go, every machine of every experiment in
// internal/experiments, and each one's equally wide unified baseline.
func builtinMachines() []*machine.Config {
	var all []*machine.Config
	all = append(all,
		machine.NewBusedGP(2, 2, 1),
		machine.NewBusedGP(4, 4, 2),
		machine.NewBusedFS(2, 2, 1),
		machine.NewBusedFS(4, 4, 2),
		machine.NewGrid4(2),
		machine.NewRing(4, 2),
		machine.NewRing(6, 2),
		machine.NewRing(8, 2),
		machine.NewUnifiedGP(4),
		machine.NewUnifiedGP(8),
		machine.NewUnifiedGP(16),
	)
	for _, cfg := range append(experiments.All(), experiments.Extensions()...) {
		for _, row := range cfg.Rows {
			all = append(all, row.Machine)
		}
	}
	all = append(all, experiments.LivermoreMachines()...)

	seen := map[string]bool{}
	var out []*machine.Config
	for _, m := range all {
		if m == nil || seen[m.Name] {
			continue
		}
		seen[m.Name] = true
		out = append(out, m)
		if u := m.Unified(); !seen[u.Name] {
			seen[u.Name] = true
			out = append(out, u)
		}
	}
	return out
}
