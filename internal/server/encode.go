package server

import (
	"encoding/json"
	"strconv"
	"sync"
	"unicode/utf8"

	"clustersched/internal/obs"
)

// MarshalJSON encodes the response exactly as encoding/json's
// reflection would encode the struct — field order, HTML-safe string
// escaping, invalid UTF-8 as U+FFFD, null for a nil slice — without
// reflection. It appends into a pooled buffer and returns an
// exact-size copy: the daemon stores the reply as a cache entry whose
// budget charge is its length, so spare capacity would be memory the
// budget does not see. Non-empty diagnostics, which the daemon never
// serves, go through encoding/json.
func (r ScheduleResponse) MarshalJSON() ([]byte, error) {
	bp := encodeBufs.Get().(*[]byte)
	b := append((*bp)[:0], `{"name":`...)
	b = appendString(b, r.Name)
	b = append(b, `,"machine":`...)
	b = appendString(b, r.Machine)
	b = appendInt(b, `,"ii":`, r.II)
	b = appendInt(b, `,"mii":`, r.MII)
	b = appendInt(b, `,"copies":`, r.Copies)
	b = appendInt(b, `,"stages":`, r.Stages)
	b = append(b, `,"cluster_of":`...)
	b = appendInts(b, r.ClusterOf)
	b = append(b, `,"cycle_of":`...)
	b = appendInts(b, r.CycleOf)
	b = append(b, `,"kernel":`...)
	b = appendString(b, r.Kernel)
	b = append(b, `,"stats":`...)
	b = appendStats(b, &r.Stats)
	b = append(b, `,"diagnostics":`...)
	switch {
	case r.Diagnostics == nil:
		b = append(b, "null"...)
	case len(r.Diagnostics) == 0:
		b = append(b, "[]"...)
	default:
		d, err := json.Marshal(r.Diagnostics)
		if err != nil {
			return nil, err
		}
		b = append(b, d...)
	}
	b = append(b, '}')
	out := make([]byte, len(b))
	copy(out, b)
	if cap(b) <= maxEncodeBuf {
		*bp = b
		encodeBufs.Put(bp)
	}
	return out, nil
}

// encodeBufs recycles MarshalJSON's buffers; one grown past
// maxEncodeBuf by a huge kernel is left to the collector.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

const maxEncodeBuf = 64 << 10

// appendStats encodes obs.Stats in its struct-tag order.
func appendStats(b []byte, s *obs.Stats) []byte {
	b = appendInt(b, `{"ii_candidates":`, s.IICandidates)
	b = appendInt(b, `,"assign_commits":`, s.AssignCommits)
	b = appendInt(b, `,"force_placements":`, s.ForcePlacements)
	b = appendInt(b, `,"evictions":`, s.Evictions)
	b = appendInt(b, `,"pcr_rejections":`, s.PCRRejections)
	b = appendInt(b, `,"assign_budget_exhausted":`, s.AssignBudgetExhausted)
	b = appendInt(b, `,"sched_budget_exhausted":`, s.SchedBudgetExhausted)
	b = appendInt(b, `,"assign_rejects":`, s.AssignRejects)
	b = appendInt(b, `,"sched_rejects":`, s.SchedRejects)
	b = appendInt(b, `,"sched_displacements":`, s.SchedDisplacements)
	b = appendInt(b, `,"assign_deltas":`, s.AssignDeltas)
	b = appendInt(b, `,"assign_full_derives":`, s.AssignFullDerives)
	b = appendInt(b, `,"ii_warm_starts":`, s.IIWarmStarts)
	b = appendInt(b, `,"ii_warm_fallbacks":`, s.IIWarmFallbacks)
	b = appendInt(b, `,"mii_ns":`, int(s.MIITime))
	b = appendInt(b, `,"assign_ns":`, int(s.AssignTime))
	b = appendInt(b, `,"sched_ns":`, int(s.SchedTime))
	return append(b, '}')
}

// appendInt appends key and then v.
func appendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendInts appends a JSON array of vs, or null for a nil slice.
func appendInts(b []byte, vs []int) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped when it
// escapes HTML, as json.Marshal does: printable ASCII except the quote,
// the backslash, '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Marshal writes
// it: the short escapes for the quote, the backslash and \b \f \n \r
// \t; \u00XX for the other control bytes and for '<', '>' and '&';
// \ufffd for each invalid UTF-8 byte; U+2028 and U+2029 as \u2028
// and \u2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
