package main

import (
	"strings"

	"clustersched/internal/diag"
)

// modeFlags are the mutually exclusive run modes of clusterbench; the
// first one the dispatch chain in main recognizes wins, so naming two
// would silently ignore the rest.
var modeFlags = []string{"table1", "markdown", "livermore", "registers"}

// flagConflicts validates the combination of explicitly-set flags,
// returning coded diagnostics (CLI001 and CLI003, catalogued in
// docs/DIAGNOSTICS.md, in code order) for combinations that would
// silently ignore a flag. set holds the names the user passed on the
// command line.
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

	return diags
}
