package lint

import (
	"clustersched/internal/ddg"
	"clustersched/internal/diag"
	"clustersched/internal/frontend"
)

// SourceGraphs lints loop-language source end to end: the AST lint
// first, then, when the source parses, the graph lint over every
// compiled loop.
func SourceGraphs(file, src string) []diag.Diagnostic {
	diags := Source(file, src)
	if diag.CountErrors(diags) > 0 {
		return diags // does not parse; nothing to compile
	}
	loops, err := frontend.Compile(src)
	if err != nil {
		// Parsed but not compilable (e.g. an unschedulable recurrence
		// detected by graph validation).
		return append(diags, diag.Diagnostic{
			Code: CodeParseError, Severity: diag.Error,
			File: file, Message: err.Error(),
		})
	}
	for _, l := range loops {
		diags = append(diags, LoopGraph(file, l.Name, l.Graph)...)
	}
	return diags
}

// LoopGraph runs Graph over one named loop, attaching the file and
// heading every subject with the loop's name.
func LoopGraph(file, name string, g *ddg.Graph) []diag.Diagnostic {
	diags := Graph(g)
	for i := range diags {
		diags[i].File = file
		if diags[i].Subject == "" {
			diags[i].Subject = "loop " + name
		} else {
			diags[i].Subject = "loop " + name + ", " + diags[i].Subject
		}
	}
	return diags
}
