package server

import (
	"bytes"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// decodeScheduleRequest decodes the wire form of a ScheduleRequest that
// internal/client and every other encoding/json caller write, without
// reflection: one JSON object whose keys are the exact lowercase field
// names, string values that are valid UTF-8 (with any escape,
// surrogate pairs included), non-negative integers, and only white
// space after the closing brace. It reports false on anything else —
// another key spelling, null, a negative or fractional number, an
// unknown field, trailing data, a syntax error — and the caller then
// decodes the body with decodeRaw, the reference decoder and the only
// one that reports errors. Whatever it accepts, decodeRaw decodes to
// the same request (FuzzDecodeScheduleRequest).
func decodeScheduleRequest(raw []byte, req *ScheduleRequest) bool {
	d := reqDecoder{raw: raw}
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return d.end()
	}
	for {
		key, ok := d.key()
		if !ok {
			return false
		}
		switch string(key) {
		case "name":
			req.Name, ok = d.str()
		case "ddg":
			req.DDG, ok = d.str()
		case "source":
			req.Source, ok = d.str()
		case "machine":
			req.Machine, ok = d.str()
		case "variant":
			req.Variant, ok = d.str()
		case "scheduler":
			req.Scheduler, ok = d.str()
		case "budget_per_node":
			req.BudgetPerNode, ok = d.uint()
		case "max_ii_slack":
			req.MaxIISlack, ok = d.uint()
		default:
			return false
		}
		if !ok {
			return false
		}
		if d.consume('}') {
			return d.end()
		}
		if !d.consume(',') {
			return false
		}
	}
}

// reqDecoder is decodeScheduleRequest's cursor over the body.
type reqDecoder struct {
	raw []byte
	i   int
}

// space skips JSON white space.
func (d *reqDecoder) space() {
	for d.i < len(d.raw) {
		switch d.raw[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips white space and then c, if c is next.
func (d *reqDecoder) consume(c byte) bool {
	d.space()
	if d.i < len(d.raw) && d.raw[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only white space is left.
func (d *reqDecoder) end() bool {
	d.space()
	return d.i == len(d.raw)
}

// key reads an object key without escapes and the colon after it. The
// key aliases the body.
func (d *reqDecoder) key() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(d.raw[d.i:], '"')
	if n < 0 {
		return nil, false
	}
	k := d.raw[d.i : d.i+n]
	if bytes.IndexByte(k, '\\') >= 0 {
		return nil, false
	}
	d.i += n + 1
	return k, d.consume(':')
}

// uint reads a non-negative integer of at most 18 digits, so it fits
// an int on every platform encoding/json accepts it on.
func (d *reqDecoder) uint() (int, bool) {
	d.space()
	start := d.i
	v := 0
	for d.i < len(d.raw) && d.raw[d.i] >= '0' && d.raw[d.i] <= '9' {
		v = v*10 + int(d.raw[d.i]-'0')
		d.i++
	}
	n := d.i - start
	if n == 0 || n > 18 || (n > 1 && d.raw[start] == '0') {
		return 0, false
	}
	return v, true
}

// str reads a string value: it checks the string and measures its
// decoded length in one pass, then copies it out in a second into a
// string of exactly that length.
func (d *reqDecoder) str() (string, bool) {
	if !d.consume('"') {
		return "", false
	}
	start := d.i
	size, escaped := 0, false
	for {
		if d.i >= len(d.raw) {
			return "", false
		}
		c := d.raw[d.i]
		switch {
		case c == '"':
			body := d.raw[start:d.i]
			d.i++
			if !escaped {
				return string(body), true
			}
			return unescape(body, size), true
		case c < ' ':
			return "", false
		case c == '\\':
			r, w := escapeAt(d.raw, d.i)
			if w == 0 {
				return "", false
			}
			escaped = true
			size += utf8.RuneLen(r)
			d.i += w
		case c < utf8.RuneSelf:
			size++
			d.i++
		default:
			r, w := utf8.DecodeRune(d.raw[d.i:])
			if r == utf8.RuneError && w == 1 {
				return "", false
			}
			size += w
			d.i += w
		}
	}
}

// escapeAt decodes the escape at raw[i] (a backslash): the rune and
// the escape's width, or a width of 0 for a malformed escape or a
// \u escape of a lone surrogate.
func escapeAt(raw []byte, i int) (rune, int) {
	if i+1 >= len(raw) {
		return 0, 0
	}
	switch raw[i+1] {
	case '"', '\\', '/':
		return rune(raw[i+1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		r := hex4(raw, i+2)
		if r < 0 {
			return 0, 0
		}
		if !utf16.IsSurrogate(r) {
			return r, 6
		}
		if i+7 < len(raw) && raw[i+6] == '\\' && raw[i+7] == 'u' {
			if pair := utf16.DecodeRune(r, hex4(raw, i+8)); pair != utf8.RuneError {
				return pair, 12
			}
		}
	}
	return 0, 0
}

// hex4 decodes the four hex digits at raw[i:], or returns -1.
func hex4(raw []byte, i int) rune {
	if i+4 > len(raw) {
		return -1
	}
	var r rune
	for _, c := range raw[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape decodes body, a string str has checked, into a string of
// its decoded size.
func unescape(body []byte, size int) string {
	var b strings.Builder
	b.Grow(size)
	for len(body) > 0 {
		n := bytes.IndexByte(body, '\\')
		if n < 0 {
			b.Write(body)
			break
		}
		b.Write(body[:n])
		r, w := escapeAt(body, n)
		b.WriteRune(r)
		body = body[n+w:]
	}
	return b.String()
}
