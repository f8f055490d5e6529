// Schedvet enforces the repository's determinism and zero-allocation
// contracts statically: it loads and type-checks the module with a
// stdlib-only source importer and runs the internal/schedvet passes
// (mapiter, nondet, allocfree, lockdiscipline, testapi) over the requested
// packages. Findings use the same coded-diagnostic surface as
// clusterlint; docs/ANALYSIS.md describes the passes and
// docs/DIAGNOSTICS.md catalogues the VET codes.
//
// Usage:
//
//	schedvet ./...                  # analyze the whole module
//	schedvet internal/assign        # analyze one package directory
//	schedvet -json ./...            # machine-readable output
//
// Exit status: 0 when no findings were reported, 1 when any finding
// was reported, 2 on usage, load, or type-check problems.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"clustersched/internal/diag"
	"clustersched/internal/schedvet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it analyzes the requested packages
// and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: schedvet [-json] [./...|package-dir...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	mod, err := schedvet.NewModule(".")
	if err != nil {
		fmt.Fprintf(stderr, "schedvet: %v\n", err)
		return 2
	}
	var pkgs []*schedvet.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		var batch []*schedvet.Package
		if pat == "./..." || pat == "..." {
			batch, err = mod.LoadAll()
			if err != nil {
				fmt.Fprintf(stderr, "schedvet: %v\n", err)
				return 2
			}
		} else {
			abs, err := filepath.Abs(pat)
			if err != nil {
				fmt.Fprintf(stderr, "schedvet: %v\n", err)
				return 2
			}
			pkg, err := mod.LoadDir(abs)
			if err != nil {
				fmt.Fprintf(stderr, "schedvet: %v\n", err)
				return 2
			}
			batch = []*schedvet.Package{pkg}
		}
		for _, pkg := range batch {
			if !seen[pkg.Path] {
				seen[pkg.Path] = true
				pkgs = append(pkgs, pkg)
			}
		}
	}

	// Surface type errors before analyzing: findings over a package
	// the checker only partially understood are not trustworthy.
	badTypes := false
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			fmt.Fprintf(stderr, "schedvet: %v\n", e)
			badTypes = true
		}
	}
	if badTypes {
		return 2
	}

	diags := schedvet.Check(mod, pkgs)
	if *jsonOut {
		if err := diag.JSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "schedvet: %v\n", err)
			return 2
		}
	} else {
		diag.Text(stdout, diags)
		if len(diags) == 0 {
			fmt.Fprintln(stdout, "schedvet: no findings")
		}
	}
	return diag.ExitCode(diags, true)
}
