// Package diag defines the structured diagnostics the static-analysis
// passes (package lint, ddg.Graph.Lint, machine.Config.Lint,
// verify.Audit) report: a severity, a stable machine-readable code, a
// human message, optional location information, and an optional
// suggested fix. A Reporter collects diagnostics; Text and JSON render
// them; AsError bridges a diagnostic list back into the error-based
// APIs the rest of the repository uses.
//
// Codes are grouped by subsystem and are stable across releases:
//
//	DDGnnn    data-dependence-graph well-formedness
//	MACHnnn   machine-configuration validation
//	LOOPnnn   loop-language (frontend AST) lint
//	SCHEDnnn  schedule audit (package verify)
//	SRVnnn    scheduling service (package server)
//	VETnnn    static determinism/allocation checks (package schedvet)
//	CLInnn    command-line usage (flag-combination conflicts)
//
// docs/DIAGNOSTICS.md catalogues every code.
package diag

import (
	"fmt"
	"sort"
	"strings"
)

// Severity classifies how serious a diagnostic is.
type Severity int

// Severity levels. Error marks input that must be rejected; Warning
// marks suspicious-but-legal input; Info is advisory.
const (
	Error Severity = iota
	Warning
	Info
)

// String returns the lower-case severity name.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	case Info:
		return "info"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// MarshalJSON renders the severity as its string name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch strings.Trim(string(b), `"`) {
	case "error":
		*s = Error
	case "warning":
		*s = Warning
	case "info":
		*s = Info
	default:
		return fmt.Errorf("diag: unknown severity %s", b)
	}
	return nil
}

// Diagnostic is one finding of an analysis pass.
type Diagnostic struct {
	// Code is the stable machine-readable identifier, e.g. "DDG006".
	Code string `json:"code"`
	// Severity classifies the finding.
	Severity Severity `json:"severity"`
	// Message describes the finding in one sentence.
	Message string `json:"message"`
	// File is the source file the finding refers to, when known.
	File string `json:"file,omitempty"`
	// Line is the 1-based source line, when known.
	Line int `json:"line,omitempty"`
	// Subject names the construct the finding is about: "node 3",
	// "edge 7", "cluster 1", "loop dotprod", "scalar s".
	Subject string `json:"subject,omitempty"`
	// Fix suggests how to resolve the finding, when one is known.
	Fix string `json:"fix,omitempty"`
}

// String renders the diagnostic in the conventional
// file:line: severity CODE: message form.
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.File != "" {
		b.WriteString(d.File)
		if d.Line > 0 {
			fmt.Fprintf(&b, ":%d", d.Line)
		}
		b.WriteString(": ")
	} else if d.Line > 0 {
		fmt.Fprintf(&b, "line %d: ", d.Line)
	}
	fmt.Fprintf(&b, "%s %s: %s", d.Severity, d.Code, d.Message)
	if d.Subject != "" {
		fmt.Fprintf(&b, " [%s]", d.Subject)
	}
	return b.String()
}

// Reporter accumulates diagnostics. The zero value is ready for use.
type Reporter struct {
	diags []Diagnostic
}

// Report appends one diagnostic.
func (r *Reporter) Report(d Diagnostic) { r.diags = append(r.diags, d) }

// Errorf reports an Error-severity diagnostic about subject.
func (r *Reporter) Errorf(code, subject, format string, args ...interface{}) {
	r.Report(Diagnostic{Code: code, Severity: Error, Subject: subject, Message: fmt.Sprintf(format, args...)})
}

// Warnf reports a Warning-severity diagnostic about subject.
func (r *Reporter) Warnf(code, subject, format string, args ...interface{}) {
	r.Report(Diagnostic{Code: code, Severity: Warning, Subject: subject, Message: fmt.Sprintf(format, args...)})
}

// Infof reports an Info-severity diagnostic about subject.
func (r *Reporter) Infof(code, subject, format string, args ...interface{}) {
	r.Report(Diagnostic{Code: code, Severity: Info, Subject: subject, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the collected findings in report order.
func (r *Reporter) Diagnostics() []Diagnostic { return r.diags }

// HasErrors reports whether any collected finding is Error severity.
func (r *Reporter) HasErrors() bool { return CountErrors(r.diags) > 0 }

// Len returns the number of collected findings.
func (r *Reporter) Len() int { return len(r.diags) }

// CountErrors counts the Error-severity findings in the list.
func CountErrors(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Severity == Error {
			n++
		}
	}
	return n
}

// Filter returns the findings at exactly the given severity.
func Filter(diags []Diagnostic, sev Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == sev {
			out = append(out, d)
		}
	}
	return out
}

// Sort orders findings by file, line, severity (errors first), then
// code, stably, for deterministic output.
func Sort(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		return a.Code < b.Code
	})
}

// ExitCode maps a finding list to the conventional linter exit
// status shared by clusterlint and schedvet: 1 when any
// Error-severity finding was reported (or any Warning when werror is
// set), 0 otherwise. Usage and I/O failures (exit 2) are the caller's
// to report; they are not diagnostics.
func ExitCode(diags []Diagnostic, werror bool) int {
	if CountErrors(diags) > 0 {
		return 1
	}
	if werror && len(Filter(diags, Warning)) > 0 {
		return 1
	}
	return 0
}

// List is an error holding every diagnostic of a failed analysis, so
// callers of error-based APIs can recover the full structured report
// with errors.As.
type List struct {
	Diags []Diagnostic
}

// Error summarizes the list: the first Error-severity message plus a
// count of the rest.
func (l *List) Error() string {
	errs := Filter(l.Diags, Error)
	if len(errs) == 0 {
		if len(l.Diags) == 0 {
			return "no diagnostics"
		}
		errs = l.Diags
	}
	msg := errs[0].Code + ": " + errs[0].Message
	if n := len(errs) - 1; n > 0 {
		msg += fmt.Sprintf(" (and %d more)", n)
	}
	return msg
}

// AsError converts a diagnostic list into an error: nil when the list
// holds no Error-severity findings, a *List carrying every finding
// otherwise.
func AsError(diags []Diagnostic) error {
	if CountErrors(diags) == 0 {
		return nil
	}
	return &List{Diags: diags}
}
