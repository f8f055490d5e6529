// Package lint implements the static-analysis passes that gate the
// scheduling pipeline: data-dependence-graph well-formedness, machine
// configuration validation, and loop-language lint over the frontend
// AST. Each pass returns structured diagnostics (package diag) with
// stable codes; docs/DIAGNOSTICS.md catalogues all of them.
//
// The passes layer advisory findings (warnings, infos) on top of the
// hard structural checks owned by ddg.Graph.Lint and
// machine.Config.Lint: an input with Error-severity findings produces
// garbage assignments or crashes downstream, while warnings flag
// legal-but-suspect inputs (dead values, isolated nodes, unused
// fabric) that usually indicate a mistake.
package lint
