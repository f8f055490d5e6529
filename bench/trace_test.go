package main

import (
	"testing"
	"time"
)

// TestSelfTime checks that a span's self time is its duration minus the
// union of its children's intervals, clipped to its own.
func TestSelfTime(t *testing.T) {
	us := func(v int) time.Duration { return time.Duration(v) * time.Microsecond }
	spans := []span{
		{op: 0, parent: -1, name: "op", start: us(0), end: us(100)},
		{op: 0, parent: 0, name: "a", start: us(10), end: us(30)},
		{op: 0, parent: 0, name: "b", start: us(20), end: us(50)},  // overlaps a
		{op: 0, parent: 0, name: "c", start: us(90), end: us(120)}, // runs past the parent
		{op: 0, parent: 2, name: "d", start: us(25), end: us(35)},
		{op: 1, parent: -1, name: "op", start: us(200), end: us(210)},
	}
	want := []time.Duration{us(50), us(20), us(20), us(30), us(10), us(10)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].name, got[i], want[i])
		}
	}
	l := newLedger([]*tracer{{spans: spans}})
	if l["op"] != us(60) {
		t.Errorf("ledger op = %v, want 60µs", l["op"])
	}
	if got := l.us("b", 2); got != 10 {
		t.Errorf("ledger b per op = %v µs, want 10", got)
	}
}
