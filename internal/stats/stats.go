// Package stats holds the small statistical types the evaluation uses:
// the ΔII histogram of the paper's figures (how far each loop's
// clustered II deviates from the unified machine's) and its rendering.
package stats

import (
	"fmt"
	"strings"
)

// MaxDelta is the last explicit histogram bucket; deviations of
// MaxDelta cycles or more are pooled there, matching the figures'
// right-most bar.
const MaxDelta = 4

// DeltaHist is a ΔII histogram over a loop suite.
type DeltaHist struct {
	Buckets [MaxDelta + 1]int // Buckets[d] = loops with II_clustered - II_unified == d (last bucket: >=)
	Failed  int               // loops where either machine found no schedule
}

// Add records one loop's deviation.
func (h *DeltaHist) Add(delta int) {
	if delta < 0 {
		// The clustered machine beat the unified one (a scheduler
		// heuristic artifact); the paper's x axis starts at zero and
		// all communication was hidden, so it counts as a match.
		delta = 0
	}
	if delta > MaxDelta {
		delta = MaxDelta
	}
	h.Buckets[delta]++
}

// AddFailure records a loop that could not be scheduled at all.
func (h *DeltaHist) AddFailure() { h.Failed++ }

// Total returns the number of loops recorded, including failures.
func (h *DeltaHist) Total() int {
	t := h.Failed
	for _, b := range h.Buckets {
		t += b
	}
	return t
}

// Percent returns bucket d as a percentage of all recorded loops.
func (h *DeltaHist) Percent(d int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(h.Buckets[d]) / float64(t)
}

// MatchPercent is the headline number of the paper: the percentage of
// loops whose clustered II equals the unified II (the x = 0 bar).
func (h *DeltaHist) MatchPercent() float64 { return h.Percent(0) }

// WithinPercent returns the percentage of loops within d cycles of the
// unified II (the paper quotes "98% of the loops deviated by no more
// than one cycle" for the grid machine).
//
//schedvet:test-api the paper's within-d-cycles figure the root benchmark tests report
func (h *DeltaHist) WithinPercent(d int) float64 {
	if d > MaxDelta {
		d = MaxDelta
	}
	t := h.Total()
	if t == 0 {
		return 0
	}
	n := 0
	for i := 0; i <= d; i++ {
		n += h.Buckets[i]
	}
	return 100 * float64(n) / float64(t)
}

// Row renders the histogram as one table row: percentages for x = 0,
// 1, 2, 3, >=4.
func (h *DeltaHist) Row() string {
	var b strings.Builder
	for d := 0; d <= MaxDelta; d++ {
		fmt.Fprintf(&b, "%7.2f%%", h.Percent(d))
	}
	if h.Failed > 0 {
		fmt.Fprintf(&b, "  (%d unscheduled)", h.Failed)
	}
	return b.String()
}

// String renders a compact summary.
func (h *DeltaHist) String() string {
	return fmt.Sprintf("match %.1f%% of %d loops [%s]", h.MatchPercent(), h.Total(), strings.TrimSpace(h.Row()))
}
