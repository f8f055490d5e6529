package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

func testGraph() *ddg.Graph {
	g := ddg.NewGraph(4, 4)
	a := g.AddNode(ddg.OpLoad, "a[i]")
	b := g.AddNode(ddg.OpLoad, "b[i]")
	m := g.AddNode(ddg.OpFMul, "")
	s := g.AddNode(ddg.OpFAdd, "s")
	g.AddEdge(a, m, 0)
	g.AddEdge(b, m, 0)
	g.AddEdge(m, s, 0)
	g.AddEdge(s, s, 1)
	return g
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	g := testGraph()
	m := machine.NewBusedGP(2, 2, 1)

	base := Key(g, m, "heuristic-iterative", "ims")
	if again := Key(testGraph(), machine.NewBusedGP(2, 2, 1), "heuristic-iterative", "ims"); again != base {
		t.Fatalf("identical request hashed differently:\n%s\n%s", base, again)
	}
	if len(base) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", base)
	}

	distinct := map[string]string{"base": base}
	add := func(label, key string) {
		for prev, k := range distinct {
			if k == key {
				t.Errorf("%s collides with %s", label, prev)
			}
		}
		distinct[label] = key
	}

	g2 := testGraph()
	g2.Nodes[0].Kind = ddg.OpStore
	add("node kind changed", Key(g2, m, "heuristic-iterative", "ims"))

	g3 := testGraph()
	g3.Nodes[0].Name = "c[i]"
	add("node name changed", Key(g3, m, "heuristic-iterative", "ims"))

	g4 := testGraph()
	g4.Edges[3].Distance = 2
	add("edge distance changed", Key(g4, m, "heuristic-iterative", "ims"))

	g5 := testGraph()
	g5.AddEdge(0, 3, 1)
	add("edge added", Key(g5, m, "heuristic-iterative", "ims"))

	add("machine ports changed", Key(g, machine.NewBusedGP(2, 2, 2), "heuristic-iterative", "ims"))
	add("machine buses changed", Key(g, machine.NewBusedGP(2, 1, 1), "heuristic-iterative", "ims"))
	add("extra changed", Key(g, m, "simple", "ims"))
	add("extra split moved", Key(g, m, "heuristic-iterativeims"))
}

func TestGetOrComputeHitAndCounters(t *testing.T) {
	c := New(1 << 20)
	calls := 0
	fn := func(context.Context) ([]byte, error) {
		calls++
		return []byte("result"), nil
	}
	v, src, err := c.GetOrCompute(context.Background(), "k1", fn)
	if err != nil || string(v) != "result" || src != Miss {
		t.Fatalf("first call = (%q, %v, %v), want (result, miss, nil)", v, src, err)
	}
	v, src, err = c.GetOrCompute(context.Background(), "k1", fn)
	if err != nil || string(v) != "result" || src != Hit {
		t.Fatalf("second call = (%q, %v, %v), want (result, hit, nil)", v, src, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	if st.Bytes <= 0 || st.MaxBytes != 1<<20 {
		t.Errorf("stats bytes = %d/%d, want positive and max 1MiB", st.Bytes, st.MaxBytes)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(1 << 20)
	calls := 0
	boom := errors.New("boom")
	fn := func(context.Context) ([]byte, error) {
		calls++
		return nil, boom
	}
	if _, _, err := c.GetOrCompute(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := c.GetOrCompute(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Errorf("failed compute ran %d times, want 2 (errors must not be cached)", calls)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d after failures, want 0", st.Entries)
	}
}

// TestByteBudgetEviction fills one logical cache well past its budget
// and checks the invariants: bytes never exceed the budget, evictions
// are counted, and the coldest keys are the ones gone.
func TestByteBudgetEviction(t *testing.T) {
	// Budget small enough that a few KB of values overflow every shard.
	const budget = numShards * 2048
	c := New(budget)
	val := make([]byte, 512)
	const n = 256
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%04d", i)
		_, _, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
			return val, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after inserting %d x %dB into a %dB budget", n, len(val), budget)
	}
	if st.Bytes > budget {
		t.Errorf("cache holds %d bytes, budget %d", st.Bytes, budget)
	}
	if st.Entries == 0 {
		t.Errorf("cache empty after inserts; eviction too aggressive")
	}
	if uint64(st.Entries)+st.Evictions != n {
		t.Errorf("entries %d + evictions %d != inserts %d", st.Entries, st.Evictions, n)
	}
	// The most recently inserted key must have survived in its shard.
	if _, ok := c.Get(fmt.Sprintf("key-%04d", n-1)); !ok {
		t.Errorf("most recent key evicted before older ones")
	}
}

func TestOversizedValueNotStored(t *testing.T) {
	c := New(numShards * 256)
	big := make([]byte, 1024)
	v, src, err := c.GetOrCompute(context.Background(), "big", func(context.Context) ([]byte, error) {
		return big, nil
	})
	if err != nil || src != Miss || len(v) != len(big) {
		t.Fatalf("oversized compute = (%d bytes, %v, %v)", len(v), src, err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("oversized value was stored (%d entries)", st.Entries)
	}
}

// TestSingleflight launches many goroutines for one cold key and
// checks exactly one computes while the rest coalesce onto its result.
func TestSingleflight(t *testing.T) {
	c := New(1 << 20)
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(context.Context) ([]byte, error) {
		calls.Add(1)
		close(started)
		<-release
		return []byte("shared"), nil
	}

	const followers = 8
	var wg sync.WaitGroup
	results := make([]Source, followers)
	errs := make([]error, followers)

	// Leader first, so the flight entry exists before followers arrive.
	var leaderSrc Source
	var leaderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderSrc, leaderErr = c.GetOrCompute(context.Background(), "k", fn)
	}()
	<-started

	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var v []byte
			v, results[i], errs[i] = c.GetOrCompute(context.Background(), "k", fn)
			if errs[i] == nil && string(v) != "shared" {
				errs[i] = fmt.Errorf("got %q", v)
			}
		}(i)
	}
	close(release)
	wg.Wait()

	if leaderErr != nil || leaderSrc != Miss {
		t.Fatalf("leader = (%v, %v), want (miss, nil)", leaderSrc, leaderErr)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times for one key, want 1", got)
	}
	for i := 0; i < followers; i++ {
		if errs[i] != nil {
			t.Errorf("follower %d: %v", i, errs[i])
		}
		// A follower that arrived after the value landed sees a plain
		// hit; one that waited sees a coalesced share. Both are fine —
		// what matters is that none recomputed.
		if results[i] != Coalesced && results[i] != Hit {
			t.Errorf("follower %d source = %v", i, results[i])
		}
	}
}

// TestFollowerSurvivesCanceledLeader: when the computing caller is
// canceled, a waiting caller with a live context must take over and
// compute the value itself rather than inherit the cancellation.
func TestFollowerSurvivesCanceledLeader(t *testing.T) {
	c := New(1 << 20)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.GetOrCompute(leaderCtx, "k", func(ctx context.Context) ([]byte, error) {
			close(leaderStarted)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want canceled", err)
		}
	}()
	<-leaderStarted

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
			return []byte("recovered"), nil
		})
		if err != nil || string(v) != "recovered" {
			t.Errorf("follower = (%q, %v), want recovered", v, err)
		}
	}()

	cancelLeader()
	wg.Wait()
}

func TestWaiterOwnContextCancel(t *testing.T) {
	c := New(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
		close(started)
		<-release
		return []byte("late"), nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, "k", func(context.Context) ([]byte, error) {
		return nil, errors.New("must not run")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want canceled", err)
	}
}

// TestAliasTier covers the fingerprint tier: an alias serves its
// reply and counts a hit; an alias to an absent key is never recorded;
// an alias whose reply was evicted misses; aliases share the budget.
func TestAliasTier(t *testing.T) {
	ctx := context.Background()
	val := func(s string) func(context.Context) ([]byte, error) {
		return func(context.Context) ([]byte, error) { return []byte(s), nil }
	}
	// Room in each shard for one 500-byte reply and its alias, not two
	// replies.
	c := New(numShards * 1000)
	reply := string(make([]byte, 500))
	k1 := Key(testGraph(), machine.NewBusedGP(2, 2, 1), "one")
	fp := FingerprintOf([]byte(`{"request":1}`))

	c.PutAlias(fp, k1) // nothing stored under k1 yet
	if st := c.Stats(); st.Aliases != 0 || st.Bytes != 0 {
		t.Fatalf("alias to an absent key recorded: %+v", st)
	}
	if _, ok := c.GetAlias(fp); ok {
		t.Fatal("unknown fingerprint served")
	}
	if _, _, err := c.GetOrCompute(ctx, k1, val(reply)); err != nil {
		t.Fatal(err)
	}
	c.PutAlias(fp, k1)
	got, ok := c.GetAlias(fp)
	if !ok || string(got) != reply {
		t.Fatalf("alias lookup = %v, want the stored reply", ok)
	}
	st := c.Stats()
	wantBytes := int64(len(k1)+len(reply)+entryOverhead) + aliasCost
	if st.Hits != 1 || st.AliasHits != 1 || st.Entries != 1 || st.Aliases != 1 || st.Bytes != wantBytes {
		t.Fatalf("stats = %+v, want 1 hit (alias), 1 entry, 1 alias, %d bytes", st, wantBytes)
	}

	// Evict k1 with a second reply in its shard: the alias dangles.
	var k2 string
	for i := 0; k2 == ""; i++ {
		if k := Key(testGraph(), machine.NewBusedGP(2, 2, 1), fmt.Sprint(i)); c.shardFor(k) == c.shardFor(k1) {
			k2 = k
		}
	}
	if _, _, err := c.GetOrCompute(ctx, k2, val(reply)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k1); ok {
		t.Fatal("k1 survived; the shard budget is off")
	}
	if got, ok := c.GetAlias(fp); ok {
		t.Fatalf("dangling alias served %q", got)
	}
	// Repointing it at a live key serves that key's reply; a key that
	// is not a Key digest is never aliased.
	c.PutAlias(FingerprintOf([]byte("other")), "not-a-digest")
	c.PutAlias(fp, k2)
	if got, ok := c.GetAlias(fp); !ok || string(got) != reply {
		t.Fatal("repointed alias does not serve its new reply")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Aliases > 1 {
		t.Errorf("stats = %+v, want 1 eviction and at most 1 alias", st)
	}
}

// TestAliasSharesRecencyOrder: a shard evicts whichever of its replies
// and aliases was used least recently.
func TestAliasSharesRecencyOrder(t *testing.T) {
	ctx := context.Background()
	val := make([]byte, 100)
	key := Key(testGraph(), machine.NewBusedGP(2, 2, 1))
	replyCost := int64(len(key)+len(val)) + entryOverhead
	for _, touchReply := range []bool{false, true} {
		// Room for the reply and one alias.
		c := New(numShards * (replyCost + aliasCost))
		var fps []Fingerprint
		for i := 0; len(fps) < 2; i++ {
			if fp := FingerprintOf([]byte(fmt.Sprint(i))); c.aliasShard(&fp) == c.shardFor(key) {
				fps = append(fps, fp)
			}
		}
		if _, _, err := c.GetOrCompute(ctx, key, func(context.Context) ([]byte, error) { return val, nil }); err != nil {
			t.Fatal(err)
		}
		c.PutAlias(fps[0], key)
		if touchReply {
			c.Get(key) // now the alias is the older of the two
		}
		c.PutAlias(fps[1], key) // over budget: one of the two goes
		_, replyKept := c.Get(key)
		_, firstKept := c.GetAlias(fps[0])
		if replyKept != touchReply || (touchReply && firstKept) {
			t.Errorf("touchReply=%v: reply kept %v, first alias served %v; want the least recently used one evicted",
				touchReply, replyKept, firstKept)
		}
		if st := c.Stats(); st.Bytes > numShards*(replyCost+aliasCost) {
			t.Errorf("touchReply=%v: %d bytes over budget", touchReply, st.Bytes)
		}
	}
}
