// Tests for /v1/schedule's fingerprint tier: byte-identical repeat
// bodies are served through an alias to the canonical entry, re-spelled
// requests reach the same entry and get their own alias, dangling
// aliases fall through, and rejected bodies never record one.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"clustersched/internal/client"
	"clustersched/internal/server"
)

// postSchedule sends body to /v1/schedule as is and returns the
// status, the reply, and its X-Cache header.
func postSchedule(t *testing.T, base, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/schedule", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("X-Cache")
}

func stats(t *testing.T, c *client.Client) *server.StatsResponse {
	t.Helper()
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	return st
}

func requestBody(t *testing.T, req server.ScheduleRequest) string {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestAliasRepeatIsAliasHit(t *testing.T) {
	c, ts := newTestServer(t, server.Config{})
	body := requestBody(t, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1"})

	status, cold, xcache := postSchedule(t, ts.URL, body)
	if status != http.StatusOK || xcache != "miss" {
		t.Fatalf("first request: %d %q, want 200 miss", status, xcache)
	}
	if st := stats(t, c); st.Cache.Aliases != 1 || st.Cache.AliasHits != 0 {
		t.Errorf("after the miss: %d aliases, %d alias hits; want 1, 0", st.Cache.Aliases, st.Cache.AliasHits)
	}
	for i := 0; i < 3; i++ {
		status, warm, xcache := postSchedule(t, ts.URL, body)
		if status != http.StatusOK || xcache != "hit" {
			t.Fatalf("repeat %d: %d %q, want 200 hit", i, status, xcache)
		}
		if !bytes.Equal(warm, cold) {
			t.Fatalf("repeat %d is not byte-identical to the reply that filled the entry", i)
		}
	}
	st := stats(t, c)
	if st.Cache.Hits != 3 || st.Cache.AliasHits != 3 || st.Cache.Misses != 1 || st.Cache.Entries != 1 || st.Cache.Aliases != 1 {
		t.Errorf("cache stats = %+v, want 3 hits (all alias) / 1 miss / 1 entry / 1 alias", st.Cache)
	}
	if st.Scheduled != 1 {
		t.Errorf("scheduled = %d, want 1", st.Scheduled)
	}
}

// TestAliasRespelledRequest: a request spelled differently (JSON field
// order, DDG whitespace and comments) is a canonical hit the first time
// and an alias hit of its own after that, always with the same bytes.
func TestAliasRespelledRequest(t *testing.T) {
	c, ts := newTestServer(t, server.Config{})
	plain := requestBody(t, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1"})
	spaced := "# the same dot product\n  " + strings.ReplaceAll(dotDDG, "\n", "  \n\n")
	respelled, err := json.Marshal(spaced)
	if err != nil {
		t.Fatal(err)
	}
	other := fmt.Sprintf(`{ "machine": "gp:2:2:1",  "ddg": %s }`, respelled)

	_, want, xcache := postSchedule(t, ts.URL, plain)
	if xcache != "miss" {
		t.Fatalf("plain spelling: X-Cache %q, want miss", xcache)
	}
	for i, step := range []struct {
		body      string
		xcache    string
		aliasHits uint64
	}{
		{other, "hit", 0}, // canonical hit; records the second alias
		{other, "hit", 1},
		{plain, "hit", 2},
	} {
		status, got, xcache := postSchedule(t, ts.URL, step.body)
		if status != http.StatusOK || xcache != step.xcache {
			t.Fatalf("step %d: %d %q, want 200 %q", i, status, xcache, step.xcache)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: reply differs from the one that filled the entry", i)
		}
		if st := stats(t, c); st.Cache.AliasHits != step.aliasHits {
			t.Errorf("step %d: %d alias hits, want %d", i, st.Cache.AliasHits, step.aliasHits)
		}
	}
	st := stats(t, c)
	if st.Cache.Entries != 1 || st.Cache.Aliases != 2 || st.Cache.Hits != 3 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 entry, 2 aliases, 3 hits, 1 miss", st.Cache)
	}
}

// TestAliasDanglingFallsThrough squeezes the cache so that no shard
// holds two replies: the first loop's reply is evicted by the flood,
// and its repeat must run the full path again — never serve another
// loop's body through a stale alias.
func TestAliasDanglingFallsThrough(t *testing.T) {
	name := func(i int) string { return fmt.Sprintf("loop-%03d", i) }
	body := func(i int) string {
		return requestBody(t, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1", Name: name(i)})
	}
	// Size the shards from what one reply and its alias cost: room for
	// that pair and one more alias, never for two replies.
	probe, probeTS := newTestServer(t, server.Config{})
	postSchedule(t, probeTS.URL, body(0))
	pair := stats(t, probe).Cache.Bytes
	c, ts := newTestServer(t, server.Config{CacheBytes: 16 * (pair + pair/4)})
	check := func(i int, reply []byte) {
		t.Helper()
		var r server.ScheduleResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if r.Name != name(i) {
			t.Fatalf("request %d served the reply for %q", i, r.Name)
		}
	}

	_, first, _ := postSchedule(t, ts.URL, body(0))
	check(0, first)
	if _, _, xcache := postSchedule(t, ts.URL, body(0)); xcache != "hit" {
		t.Fatalf("repeat before the flood: X-Cache %q, want hit", xcache)
	}
	if st := stats(t, c); st.Cache.Entries != 1 {
		t.Fatalf("the budget stores %d replies after one request, want 1 (test sizing is off)", st.Cache.Entries)
	}
	for i := 1; i <= 64; i++ {
		_, reply, _ := postSchedule(t, ts.URL, body(i))
		check(i, reply)
	}
	st := stats(t, c)
	if st.Cache.Entries > 16 {
		t.Fatalf("%d replies stored, want at most one per shard", st.Cache.Entries)
	}
	// One alias per name: more aliases than replies means some dangle.
	if st.Cache.Aliases <= st.Cache.Entries {
		t.Fatalf("%d aliases for %d replies: no alias dangles", st.Cache.Aliases, st.Cache.Entries)
	}

	// Every earlier request is repeated: those whose reply was evicted
	// are misses that recompute their own loop's reply.
	misses := 0
	for i := 0; i <= 64; i++ {
		status, reply, xcache := postSchedule(t, ts.URL, body(i))
		if status != http.StatusOK {
			t.Fatalf("repeat %d: status %d", i, status)
		}
		check(i, reply)
		if xcache == "miss" {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("no repeat fell through to a miss; the flood evicted nothing")
	}
}

// TestAliasRejectedBodies: a body rejected today is rejected the same
// way on every repeat, and never records an alias.
func TestAliasRejectedBodies(t *testing.T) {
	c, ts := newTestServer(t, server.Config{})
	oversized := `{"machine":"gp:2:2:1","ddg":"` + strings.Repeat("#", 16<<20) + `"}`
	cases := []struct {
		name   string
		body   string
		status int
		msg    string
	}{
		{"unknown field", `{"machine":"gp:2:2:1","ddg":"x","machnie":"oops"}`, http.StatusBadRequest, "unknown field"},
		{"oversized", oversized, http.StatusBadRequest, "bad request body: http: request body too large"},
		{"bad ddg", requestBody(t, server.ScheduleRequest{DDG: "loop z\nnode 0 alu\nedge 0 0 0\nend\n", Machine: "gp:2:2:1"}), http.StatusUnprocessableEntity, "invalid loop"},
		{"two loops", requestBody(t, server.ScheduleRequest{DDG: dotDDG + dotDDG, Machine: "gp:2:2:1"}), http.StatusUnprocessableEntity, "exactly one loop"},
	}
	for _, tc := range cases {
		var first []byte
		for i := 0; i < 3; i++ {
			status, reply, xcache := postSchedule(t, ts.URL, tc.body)
			if status != tc.status || xcache != "" {
				t.Fatalf("%s, try %d: %d X-Cache %q, want %d and none", tc.name, i, status, xcache, tc.status)
			}
			if !strings.Contains(string(reply), tc.msg) {
				t.Errorf("%s: reply %s does not say %q", tc.name, reply, tc.msg)
			}
			if i == 0 {
				first = reply
			} else if !bytes.Equal(reply, first) {
				t.Errorf("%s, try %d: reply %s differs from the first %s", tc.name, i, reply, first)
			}
		}
	}
	st := stats(t, c)
	if st.Cache.Aliases != 0 || st.Cache.Entries != 0 || st.Cache.AliasHits != 0 {
		t.Errorf("rejected bodies left cache state %+v", st.Cache)
	}
}

// TestAliasConcurrent hammers one body from several goroutines while
// others send distinct ones; run it under -race. Every reply for the
// repeated body is byte-identical to the first, and every distinct one
// is its own loop's.
func TestAliasConcurrent(t *testing.T) {
	c, ts := newTestServer(t, server.Config{})
	hot := requestBody(t, server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1", Name: "hot"})
	_, want, _ := postSchedule(t, ts.URL, hot)

	const repeaters, distinct, perWorker = 4, 2, 20
	var wg sync.WaitGroup
	errs := make(chan error, (repeaters+distinct)*perWorker)
	for w := 0; w < repeaters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				got, xcache, err := c.ScheduleRaw(context.Background(), server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1", Name: "hot"})
				if err != nil || xcache != "hit" || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("repeat: X-Cache %q, err %v, identical %v", xcache, err, bytes.Equal(got, want))
				}
			}
		}()
	}
	for w := 0; w < distinct; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("cold-%d-%d", w, i)
				resp, _, err := c.Schedule(context.Background(), server.ScheduleRequest{DDG: dotDDG, Machine: "gp:2:2:1", Name: name})
				if err != nil || resp.Name != name {
					errs <- fmt.Errorf("distinct %s: err %v, reply for %q", name, err, resp.Name)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := stats(t, c)
	if st.Cache.AliasHits != repeaters*perWorker {
		t.Errorf("%d alias hits, want %d", st.Cache.AliasHits, repeaters*perWorker)
	}
	if want := 1 + distinct*perWorker; st.Cache.Entries != want || st.Cache.Aliases != want {
		t.Errorf("%d entries, %d aliases, want %d each", st.Cache.Entries, st.Cache.Aliases, want)
	}
}
