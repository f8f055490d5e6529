package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"clustersched/internal/ddgio"
	"clustersched/internal/loopgen"
)

// encodedRequests are requests as encoding/json writes them: every
// shape internal/client sends (suite loops by DDG, loop source, every
// option), and strings that need each kind of escape.
func encodedRequests(t testing.TB) [][]byte {
	var reqs []ScheduleRequest
	suite := loopgen.Suite(loopgen.Options{Seed: 1})
	for i := 0; i < len(suite); i += 97 {
		var b strings.Builder
		if err := ddgio.Write(&b, fmt.Sprintf("loop%d", i), suite[i]); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, ScheduleRequest{DDG: b.String(), Machine: "gp:2:2:1", Name: fmt.Sprintf("warm-%d", i)})
	}
	reqs = append(reqs,
		ScheduleRequest{Source: "loop d { s = s + a[i] * b[i] }", Machine: "fs:4:4:2", Variant: "simple", Scheduler: "sms", BudgetPerNode: 9, MaxIISlack: 3},
		ScheduleRequest{Name: `<a href="x">&amp;</a> \ /`, Machine: "grid:2", BudgetPerNode: 123456789012345678},
		ScheduleRequest{Name: "\x00\x01\b\f\n\r\t\x1f\x7f", DDG: "line\u2028sep\u2029para"},
		ScheduleRequest{Name: "\u672b \u00e9 \U0001F600 \ufffd", Machine: "ring:6:2"},
		ScheduleRequest{},
	)
	var bodies [][]byte
	for _, r := range reqs {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(r, " ", "\t")
		if err != nil {
			t.Fatal(err)
		}
		var unescaped bytes.Buffer
		enc := json.NewEncoder(&unescaped)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, raw, indented, unescaped.Bytes())
	}
	return bodies
}

// deferredBodies lie outside the fast decoder's subset: decodeRaw
// decides them, accepting some and rejecting the rest.
var deferredBodies = []string{
	``, `null`, `[]`, `"x"`, `{`, `{,}`, `{"machine":"x",}`, `{"machine":"x"`,
	`{"Machine":"gp:2:2:1"}`, `{"MACHINE":"gp:2:2:1"}`,
	`{"machine":null}`, `{"budget_per_node":null}`, `{"machine":5}`, `{"budget_per_node":"5"}`,
	`{"budget_per_node":-1}`, `{"budget_per_node":-0}`, `{"budget_per_node":1.5}`, `{"budget_per_node":1.0}`,
	`{"budget_per_node":1e2}`, `{"max_ii_slack":01}`, `{"max_ii_slack":1234567890123456789}`,
	`{"machine":"x","machnie":"oops"}`, `{"machine":"x"} {}`, `{"machine":"x"}x`,
	`{"machine":"\ud800"}`, `{"machine":"\udc00\ud800"}`, `{"machine":"\ud800A"}`,
	"{\"machine\":\"\xff\"}", "{\"machine\":\"a\tb\"}", `{"machine":"\q"}`, `{"machine":"\u12"}`,
	"\xef\xbb\xbf{}", `{"ddg":"x","ddg":5}`,
}

// TestDecodeScheduleRequestAcceptsEncodedRequests: every body
// encoding/json writes for a request is inside the subset and decodes
// to the request decodeRaw gives.
func TestDecodeScheduleRequestAcceptsEncodedRequests(t *testing.T) {
	for _, raw := range encodedRequests(t) {
		var got, want ScheduleRequest
		if !decodeScheduleRequest(raw, &got) {
			t.Fatalf("fast decoder deferred an encoded request: %.200s", raw)
		}
		if err := decodeRaw(raw, nil, &want); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("fast decoder: %+v\ndecodeRaw: %+v", got, want)
		}
	}
}

// TestDecodeScheduleRequestDefers: bodies outside the subset go to
// decodeRaw.
func TestDecodeScheduleRequestDefers(t *testing.T) {
	for _, body := range deferredBodies {
		var req ScheduleRequest
		if decodeScheduleRequest([]byte(body), &req) {
			t.Errorf("fast decoder accepted %q as %+v", body, req)
		}
	}
}

// TestDecodeScheduleRequestAllocs: a body decodes into one allocation
// per non-empty string field, each exactly the string's size.
func TestDecodeScheduleRequestAllocs(t *testing.T) {
	raw, err := json.Marshal(ScheduleRequest{Name: "warm-1", DDG: "loop x\nnode 0 alu a<b\nend\n", Machine: "gp:2:2:1", BudgetPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	var req ScheduleRequest
	allocs := testing.AllocsPerRun(100, func() {
		if !decodeScheduleRequest(raw, &req) {
			t.Fatal("deferred")
		}
	})
	if allocs != 3 {
		t.Errorf("decoding a 3-string request made %.1f allocations, want 3", allocs)
	}
}

// FuzzDecodeScheduleRequest: whenever the fast decoder accepts a body,
// encoding/json accepts it too and decodes the same request.
func FuzzDecodeScheduleRequest(f *testing.F) {
	for _, raw := range encodedRequests(f) {
		f.Add(raw)
	}
	for _, body := range deferredBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var fast ScheduleRequest
		if !decodeScheduleRequest(raw, &fast) {
			return
		}
		var ref ScheduleRequest
		if err := decodeRaw(raw, nil, &ref); err != nil {
			t.Fatalf("fast decoder accepted %q, decodeRaw rejects it: %v", raw, err)
		}
		if fast != ref {
			t.Fatalf("body %q\nfast decoder: %+v\ndecodeRaw:    %+v", raw, fast, ref)
		}
	})
}
