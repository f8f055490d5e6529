package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"clustersched"
	"clustersched/internal/cli"
	"clustersched/internal/ddgio"
)

// nsField matches the wall-clock phase timings, the only reply bytes
// allowed to differ between two runs of the same loop.
var nsField = regexp.MustCompile(`"[a-z]+_ns":-?[0-9]+`)

func zeroNS(body []byte) string {
	return nsField.ReplaceAllStringFunc(string(body), func(f string) string {
		return f[:strings.IndexByte(f, ':')+1] + "0"
	})
}

// keys reports how many keys the registry holds.
func (r *sessionRegistry) keys() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pools)
}

// postJSON posts v and returns the reply; a transport failure is a
// test error and status 0. It is safe to call from any goroutine.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	req, err := json.Marshal(v)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(req))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	return resp.StatusCode, body
}

// freshBody is the reply a fresh, per-call session gives for loop g
// under name, with the phase timings zeroed. It is safe to call from
// any goroutine.
func freshBody(t *testing.T, name, spec string, g *clustersched.Graph, options ...clustersched.Option) string {
	t.Helper()
	m, err := cli.ParseMachine(spec)
	if err != nil {
		t.Error(err)
		return ""
	}
	opts := append([]clustersched.Option{
		clustersched.WithVariant(clustersched.HeuristicIterative),
		clustersched.WithScheduler(clustersched.IMS),
	}, options...)
	res, err := clustersched.ScheduleContext(context.Background(), g, m, opts...)
	if err != nil {
		t.Errorf("%s on %s: %v", name, spec, err)
		return ""
	}
	body, err := json.Marshal(ResponseFor(name, spec, res))
	if err != nil {
		t.Error(err)
		return ""
	}
	return zeroNS(body)
}

// suiteDDG renders the first count suite loops as one ddg payload, the
// i-th loop named prefix-i, and parses it back the way the server
// will.
func suiteDDG(t *testing.T, prefix string, count int) (string, []ddgio.NamedGraph) {
	t.Helper()
	var b strings.Builder
	for i, g := range clustersched.GenerateSuite(0, count) {
		if err := ddgio.Write(&b, fmt.Sprintf("%s-%d", prefix, i), g); err != nil {
			t.Fatal(err)
		}
	}
	loops, err := ddgio.Read(strings.NewReader(b.String()))
	if err != nil || len(loops) != count {
		t.Fatalf("suite payload parsed into %d loops: %v", len(loops), err)
	}
	return b.String(), loops
}

// TestWarmSessionRepliesMatchFreshSessions: every /v1/schedule miss and
// every /v1/batch item is scheduled on a session drawn warm from the
// daemon's registry, and must reply byte for byte what a fresh
// per-call session replies, phase timings aside. The schedule requests
// run from four goroutines so -race sees concurrent draws and returns.
func TestWarmSessionRepliesMatchFreshSessions(t *testing.T) {
	const count = 64
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	texts := make([]string, count)
	for i, g := range clustersched.GenerateSuite(0, count) {
		var b strings.Builder
		if err := ddgio.Write(&b, "loop", g); err != nil {
			t.Fatal(err)
		}
		texts[i] = b.String()
	}
	for _, spec := range []string{"gp:2:2:1", "grid:2"} {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < count; i += 4 {
					loops, err := ddgio.Read(strings.NewReader(texts[i]))
					if err != nil {
						t.Error(err)
						return
					}
					// A unique name makes every request a miss.
					name := fmt.Sprintf("%s-one-%d", spec, i)
					status, body := postJSON(t, ts.URL+"/v1/schedule", ScheduleRequest{Name: name, DDG: texts[i], Machine: spec})
					if status != http.StatusOK {
						t.Errorf("%s: status %d: %s", name, status, body)
						continue
					}
					if got, want := zeroNS(body), freshBody(t, name, spec, loops[0].Graph); got != want {
						t.Errorf("%s: warm-session reply differs from a fresh session's:\ngot  %s\nwant %s", name, got, want)
					}
				}
			}(w)
		}
		wg.Wait()

		payload, loops := suiteDDG(t, spec+"-batch", count)
		status, body := postJSON(t, ts.URL+"/v1/batch", BatchRequest{DDG: payload, Machine: spec})
		if status != http.StatusOK {
			t.Fatalf("batch on %s: status %d: %s", spec, status, body)
		}
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Items) != count || br.CacheHits != 0 {
			t.Fatalf("batch on %s: %d items, %d hits; want %d misses", spec, len(br.Items), br.CacheHits, count)
		}
		for i, it := range br.Items {
			if it.Error != "" {
				t.Errorf("batch item %s: %s", it.Name, it.Error)
				continue
			}
			if got, want := zeroNS(it.Result), freshBody(t, loops[i].Name, spec, loops[i].Graph); got != want {
				t.Errorf("batch item %s differs from a fresh session's reply:\ngot  %s\nwant %s", it.Name, got, want)
			}
		}
	}

	st := s.sessions.stats()
	if misses := int64(4 * count); st.Reused+st.Built != misses || st.Unpooled != 0 {
		t.Errorf("sessions %+v over %d misses: want every miss drawn from the registry", st, misses)
	}
	if st.Reused < st.Built {
		t.Errorf("sessions %+v: the registry rebuilt more sessions than it reused", st)
	}
	if k := s.sessions.keys(); k != 2 {
		t.Errorf("registry holds %d keys after two machines under one option set, want 2", k)
	}
}

// TestSessionRegistryCap: requests over more (machine, options) keys
// than the registry holds all succeed with fresh-session replies; keys
// past the cap get throwaway sessions and the registry never grows
// beyond maxSessionKeys.
func TestSessionRegistryCap(t *testing.T) {
	const extra = 5
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	payload, loops := suiteDDG(t, "cap", 1)
	for i := 0; i < maxSessionKeys+extra; i++ {
		// Each slack is its own option identity, hence its own key.
		slack := 40 + i
		name := fmt.Sprintf("cap-%d", i)
		status, body := postJSON(t, ts.URL+"/v1/schedule", ScheduleRequest{Name: name, DDG: payload, Machine: "gp:2:2:1", MaxIISlack: slack})
		if status != http.StatusOK {
			t.Fatalf("key %d: status %d: %s", i, status, body)
		}
		if got, want := zeroNS(body), freshBody(t, name, "gp:2:2:1", loops[0].Graph, clustersched.WithMaxIISlack(slack)); got != want {
			t.Errorf("key %d: reply differs from a fresh session's:\ngot  %s\nwant %s", i, got, want)
		}
		if k := s.sessions.keys(); k > maxSessionKeys {
			t.Fatalf("registry grew to %d keys, cap %d", k, maxSessionKeys)
		}
	}
	if k := s.sessions.keys(); k != maxSessionKeys {
		t.Errorf("registry holds %d keys, want the cap %d", k, maxSessionKeys)
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	want := SessionStats{Built: maxSessionKeys, Unpooled: extra}
	if st.Sessions != want {
		t.Errorf("statsz sessions %+v, want %+v", st.Sessions, want)
	}
}
