package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Spans of one operation
// share op; parent is the index of the enclosing span in the same
// tracer, or -1 for an operation's root.
type span struct {
	op     int
	parent int
	name   string
	start  time.Duration // since the tracer's base
	end    time.Duration
}

// tracer records spans in memory for one caller goroutine. The
// benchmark wraps its own calls into each layer's public entry point;
// nothing inside the program is instrumented.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	t.spans = append(t.spans, span{op: op, parent: parent, name: name, start: time.Since(t.base)})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id].end = time.Since(t.base) }

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// merged, and child time outside the parent's interval is not counted.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		ivs := make([][2]time.Duration, 0, len(kids))
		for _, k := range kids {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if lo < hi {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered time.Duration
		curLo, curHi := time.Duration(-1), time.Duration(-1)
		for _, iv := range ivs {
			if iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
				continue
			}
			curHi = max(curHi, iv[1])
		}
		covered += curHi - curLo
		self[i] -= covered
	}
	return self
}

// ledger is the self time summed by span name over every tracer.
type ledger map[string]time.Duration

func newLedger(tracers []*tracer) ledger {
	l := make(ledger)
	for _, t := range tracers {
		for i, d := range selfTimes(t.spans) {
			l[t.spans[i].name] += d
		}
	}
	return l
}

// us is the self time of name in microseconds per unit of work.
func (l ledger) us(name string, per int) float64 {
	if per == 0 {
		return 0
	}
	return float64(l[name].Nanoseconds()) / 1e3 / float64(per)
}

// writeSpans writes every span as one JSON object per line. Span ids
// are made unique across tracers by prefixing the tracer index.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for ti, t := range tracers {
		for i, s := range t.spans {
			parent := ""
			if s.parent >= 0 {
				parent = fmt.Sprintf("%d.%d", ti, s.parent)
			}
			rec := struct {
				Op      int    `json:"op"`
				Span    string `json:"span"`
				Parent  string `json:"parent,omitempty"`
				Name    string `json:"name"`
				StartNS int64  `json:"start_ns"`
				EndNS   int64  `json:"end_ns"`
			}{s.op, fmt.Sprintf("%d.%d", ti, i), parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds()}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
