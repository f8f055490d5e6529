package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestPercentileSampleRule pins nearest-rank percentiles and the
// refusal of a percentile with fewer than minBeyond samples beyond it.
func TestPercentileSampleRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		enough bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.enough {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.enough)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported enough samples")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the formula external spread checks
// use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{5, 1, 3, 2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestTimingsRefuseThinP99 checks that a window too short for a p99 is
// an error outside quick mode and an omission inside it.
func TestTimingsRefuseThinP99(t *testing.T) {
	w := window{lat: seq(500), wall: time.Second, attempted: 500}
	if err := w.timings(map[string]metric{}, []float64{1}, false); err == nil {
		t.Error("p99 over 500 samples was not refused")
	}
	m := map[string]metric{}
	if err := w.timings(m, []float64{1}, true); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["lat_p99_us"]; ok {
		t.Error("quick mode reported a refused p99")
	}
	if m["lat_p50_us"].value != 250 {
		t.Errorf("p50 = %v, want 250", m["lat_p50_us"].value)
	}
}

// TestTimingsScaleByHostFactor checks the direction of the calibration:
// a window whose probes ran twice as slow as the reference reports
// twice the raw throughput and half the raw latencies and set-up time.
func TestTimingsScaleByHostFactor(t *testing.T) {
	w := window{lat: seq(2000), wall: 2 * time.Second, attempted: 2000, probes: []time.Duration{2 * probeRef, 2 * probeRef, 3 * probeRef}}
	m := map[string]metric{}
	if err := w.timings(m, []float64{3, 1, 2}, false); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"ops_per_s": 2000, "lat_p50_us": 500, "lat_p99_us": 990, "setup_s": 1} {
		if got := m[name].value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
