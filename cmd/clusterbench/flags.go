package main

import (
	"sort"
	"strings"

	"clustersched/internal/diag"
)

// modeFlags are the mutually exclusive run modes of clusterbench; the
// first one the dispatch chain in main recognizes wins, so naming two
// would silently ignore the rest.
var modeFlags = []string{"table1", "server", "fleet", "benchjson", "assignjson", "compilejson", "baseline", "trend", "markdown", "livermore", "registers"}

// flagConflicts validates the combination of explicitly-set flags,
// returning coded diagnostics (CLI001..CLI007, catalogued in
// docs/DIAGNOSTICS.md) for combinations that would silently ignore a
// flag or produce an unattributable measurement. set holds the names
// the user passed on the command line.
func flagConflicts(set map[string]bool) []diag.Diagnostic {
	var diags []diag.Diagnostic
	var modes []string
	for _, m := range modeFlags {
		if set[m] {
			modes = append(modes, "-"+m)
		}
	}
	if len(modes) > 1 {
		diags = append(diags, diag.Diagnostic{
			Code:     "CLI001",
			Severity: diag.Error,
			Message:  "flags " + strings.Join(modes, " and ") + " select conflicting run modes",
			Fix:      "pass exactly one run-mode flag",
		})
	}

	for _, mode := range []string{"server", "fleet"} {
		if !set[mode] {
			continue
		}
		for _, f := range []string{"cpuprofile", "memprofile", "trace", "stats", "workers", "warmstart"} {
			if set[f] {
				diags = append(diags, diag.Diagnostic{
					Code:     "CLI002",
					Severity: diag.Error,
					Message:  "-" + f + " has no effect with -" + mode + ": scheduling runs in the daemon process",
					Fix:      "profile or trace the clusterd process instead",
				})
			}
		}
	}

	if set["table1"] {
		for _, f := range []string{"scheduler", "stats", "trace", "warmstart", "workers", "exp"} {
			if set[f] {
				diags = append(diags, diag.Diagnostic{
					Code:     "CLI003",
					Severity: diag.Error,
					Message:  "-" + f + " has no effect with -table1: nothing is scheduled",
					Fix:      "drop -table1 to run the experiments",
				})
			}
		}
	}

	if set["benchreps"] && !set["benchjson"] && !set["compilejson"] && !set["baseline"] && !set["fleet"] && !set["trend"] {
		diags = append(diags, diag.Diagnostic{
			Code:     "CLI004",
			Severity: diag.Error,
			Message:  "-benchreps has no effect without -benchjson, -compilejson, -baseline, -fleet, or -trend",
			Fix:      "add -benchjson, -compilejson, -baseline, -fleet, or -trend, or drop -benchreps",
		})
	}

	if set["basetol"] && !set["baseline"] && !set["fleet"] {
		diags = append(diags, diag.Diagnostic{
			Code:     "CLI005",
			Severity: diag.Error,
			Message:  "-basetol has no effect without -baseline or -fleet",
			Fix:      "add -baseline or -fleet, or drop -basetol",
		})
	}

	if set["trendsha"] && !set["trend"] {
		diags = append(diags, diag.Diagnostic{
			Code:     "CLI006",
			Severity: diag.Error,
			Message:  "-trendsha has no effect without -trend",
			Fix:      "add -trend, or drop -trendsha",
		})
	}

	if set["trend"] && !set["trendsha"] {
		diags = append(diags, diag.Diagnostic{
			Code:     "CLI007",
			Severity: diag.Error,
			Message:  "-trend requires -trendsha: a trend row without its git SHA cannot be attributed to a commit",
			Fix:      "pass -trendsha $(git rev-parse --short HEAD)",
		})
	}

	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Code < diags[j].Code })
	return diags
}
