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
		{"one mode", []string{"benchjson"}, nil},
		{"mode with its own options", []string{"benchjson", "benchreps", "workers"}, nil},
		{"experiments with options", []string{"exp", "stats", "workers", "scheduler"}, nil},
		{"profiled local run", []string{"assignjson", "cpuprofile", "memprofile"}, nil},
		{"two modes", []string{"server", "benchjson"}, []string{"CLI001"}},
		{"three modes", []string{"table1", "markdown", "livermore"}, []string{"CLI001"}},
		{"server with cpuprofile", []string{"server", "cpuprofile"}, []string{"CLI002"}},
		{"server with trace and stats", []string{"server", "trace", "stats"}, []string{"CLI002", "CLI002"}},
		{"server with warmstart", []string{"server", "warmstart"}, []string{"CLI002"}},
		{"server keeps scheduler", []string{"server", "scheduler"}, nil},
		{"table1 with scheduler", []string{"table1", "scheduler"}, []string{"CLI003"}},
		{"table1 with exp", []string{"table1", "exp"}, []string{"CLI003"}},
		{"table1 alone", []string{"table1", "seed", "count"}, nil},
		{"benchreps without benchjson", []string{"benchreps"}, []string{"CLI004"}},
		{"baseline with its own options", []string{"baseline", "benchreps", "basetol"}, nil},
		{"baseline with another mode", []string{"baseline", "assignjson"}, []string{"CLI001"}},
		{"basetol without baseline", []string{"basetol"}, []string{"CLI005"}},
		{"fleet with basetol", []string{"fleet", "basetol"}, nil},
		{"fleet with benchreps", []string{"fleet", "benchreps"}, nil},
		{"fleet keeps scheduler", []string{"fleet", "scheduler"}, nil},
		{"fleet with cpuprofile", []string{"fleet", "cpuprofile"}, []string{"CLI002"}},
		{"fleet with another mode", []string{"fleet", "server"}, []string{"CLI001"}},
		{"trend with its own options", []string{"trend", "trendsha", "benchreps"}, nil},
		{"trend with another mode", []string{"trend", "trendsha", "baseline"}, []string{"CLI001"}},
		{"trend without trendsha", []string{"trend"}, []string{"CLI007"}},
		{"trend without trendsha plus mode", []string{"trend", "baseline"}, []string{"CLI001", "CLI007"}},
		{"trendsha without trend", []string{"trendsha"}, []string{"CLI006"}},
		{"compilejson mode", []string{"compilejson", "benchreps"}, nil},
		{"compilejson with another mode", []string{"compilejson", "benchjson"}, []string{"CLI001"}},
		{"stacked", []string{"server", "benchjson", "cpuprofile"}, []string{"CLI001", "CLI002"}},
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
	diags := flagConflicts(set("server", "cpuprofile"))
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	d := diags[0]
	if d.Code != "CLI002" || d.Severity.String() != "error" || d.Fix == "" {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
}
