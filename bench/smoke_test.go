package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload end to end in quick mode — a
// small suite, one set-up, a short window — untraced and traced,
// including the real clusterd start for the serve workloads, and checks
// the printed result line.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds clusterd and runs every workload")
	}
	ctx := context.Background()
	clusterd, err := buildClusterd(ctx, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 1, window: 400 * time.Millisecond, trace: traced, quick: true, clusterd: clusterd}
			rep, err := runWorkload(ctx, w, cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			res, err := parseResult(out.Bytes())
			if err != nil {
				t.Fatalf("%s (trace %v): %v\n%s", w.name, traced, err, out.String())
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (trace %v): %d attempted, %d failed", w.name, traced, res.Attempted, res.Failed)
			}
			for _, d := range rep.defs {
				v, ok := res.Metrics[d.name]
				if !ok {
					if !strings.HasPrefix(d.name, "lat_") {
						t.Errorf("%s (trace %v): metric %s missing", w.name, traced, d.name)
					}
					continue
				}
				if v.Unit != d.unit || math.IsNaN(v.Value) {
					t.Errorf("%s (trace %v): %s = %v %s", w.name, traced, d.name, v.Value, v.Unit)
				}
			}
			if len(res.Metrics) > len(rep.defs) {
				t.Errorf("%s (trace %v): %d metrics printed, catalogue has %d", w.name, traced, len(res.Metrics), len(rep.defs))
			}
		}
	}
}

// TestSuiteMatchesPaperHeadline pins suite-sched's quality number to
// the paper's: on seed 1 the per-machine ii_match_pct must equal the
// EXPERIMENTS.md headline rows.
func TestSuiteMatchesPaperHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules the full suite on three machines")
	}
	inst, err := setupSuite(context.Background(), config{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*suiteInst)
	want := []float64{98.6, 98.6, 97.1} // gp-2c-2b-1p, gp-4c-4b-2p, grid-4c-2p
	for i, sm := range s.machines {
		if got := math.Round(s.match[i]*10) / 10; got != want[i] {
			t.Errorf("%s: ii_match_pct %.2f rounds to %.1f, EXPERIMENTS.md has %.1f", sm.m.Name, s.match[i], got, want[i])
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// metric and workload tables of this package identical.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the bench %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the bench %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (g.Bound != nil) != bounded || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the bench %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
