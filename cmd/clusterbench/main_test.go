package main

import "testing"

// set builds the explicitly-set-flag map flag.Visit would produce.
func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func codes(t *testing.T, names ...string) []string {
	t.Helper()
	var out []string
	for _, d := range flagConflicts(set(names...)) {
		out = append(out, d.Code)
	}
	return out
}

func TestFlagConflicts(t *testing.T) {
	cases := []struct {
		name  string
		flags []string
		want  []string
	}{
		{"no flags", nil, nil},
		{"one mode", []string{"livermore"}, nil},
		{"mode with its own options", []string{"registers", "csv", "workers"}, nil},
		{"experiments with options", []string{"exp", "stats", "workers", "scheduler"}, nil},
		{"two modes", []string{"markdown", "registers"}, []string{"CLI001"}},
		{"three modes", []string{"table1", "markdown", "livermore"}, []string{"CLI001"}},
		{"table1 with scheduler", []string{"table1", "scheduler"}, []string{"CLI003"}},
		{"table1 with exp", []string{"table1", "exp"}, []string{"CLI003"}},
		{"table1 with local-run flags", []string{"table1", "stats", "trace", "warmstart", "workers"}, []string{"CLI003", "CLI003", "CLI003", "CLI003"}},
		{"table1 alone", []string{"table1", "seed", "count"}, nil},
		{"stacked", []string{"table1", "livermore", "exp"}, []string{"CLI001", "CLI003"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := codes(t, tc.flags...)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestFlagConflictDiagnostics pins the diagnostic shape: coded, Error
// severity, and carrying a fix, so the CLI output stays actionable.
func TestFlagConflictDiagnostics(t *testing.T) {
	diags := flagConflicts(set("table1", "scheduler"))
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	d := diags[0]
	if d.Code != "CLI003" || d.Severity.String() != "error" || d.Fix == "" {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
}
