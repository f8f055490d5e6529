package cachering

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("0123456789abcdef-key-%d", i)
	}
	return out
}

func TestOwnerDeterministicAndOrderIndependent(t *testing.T) {
	a := New(7, []string{"w0", "w1", "w2"}, 64)
	b := New(7, []string{"w2", "w0", "w1", "w0"}, 64) // shuffled + duplicate
	for _, k := range keys(200) {
		oa, ok := a.Owner(k)
		ob, _ := b.Owner(k)
		if !ok || oa != ob {
			t.Fatalf("owner(%q) = %q vs %q", k, oa, ob)
		}
	}
	if a.Epoch() != 7 {
		t.Fatalf("epoch = %d, want 7", a.Epoch())
	}
}

func TestDistributionIsRoughlyFair(t *testing.T) {
	ids := []string{"w0", "w1", "w2", "w3"}
	r := New(1, ids, 0) // default vnodes
	counts := map[string]int{}
	const n = 4000
	for _, k := range keys(n) {
		o, _ := r.Owner(k)
		counts[o]++
	}
	for _, id := range ids {
		share := float64(counts[id]) / n
		if share < 0.10 || share > 0.45 {
			t.Errorf("node %s owns %.1f%% of keys, outside [10%%, 45%%]", id, share*100)
		}
	}
}

// TestRemovalOnlyRemapsTheLostArc is the property the cache tier is
// built on: removing one node moves only the keys it owned, and every
// remapped key lands on that key's previous first fallback.
func TestRemovalOnlyRemapsTheLostArc(t *testing.T) {
	full := New(1, []string{"w0", "w1", "w2"}, 64)
	reduced := New(2, []string{"w0", "w2"}, 64)
	moved := 0
	for _, k := range keys(1000) {
		before, _ := full.Owner(k)
		after, _ := reduced.Owner(k)
		if before != "w1" {
			if after != before {
				t.Fatalf("key %q moved %q -> %q though its owner survived", k, before, after)
			}
			continue
		}
		moved++
		owners := owners(full, k, 2)
		if len(owners) != 2 || owners[0] != "w1" {
			t.Fatalf("owners(%q) = %v, want w1 first", k, owners)
		}
		if after != owners[1] {
			t.Fatalf("key %q remapped to %q, want previous fallback %q", k, after, owners[1])
		}
	}
	if moved < 200 || moved > 500 {
		t.Errorf("%d of 1000 keys owned by the removed node, outside [200, 500]", moved)
	}
}

// TestOwnersDistinctAndBounded pins the fallback-order oracle itself.
func TestOwnersDistinctAndBounded(t *testing.T) {
	r := New(1, []string{"a", "b", "c"}, 16)
	for _, k := range keys(50) {
		owners := owners(r, k, 5)
		if len(owners) != 3 {
			t.Fatalf("owners(%q, 5) = %v, want all 3 nodes", k, owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("owners(%q) repeats %q: %v", k, o, owners)
			}
			seen[o] = true
		}
	}
}

func TestEmptyRing(t *testing.T) {
	r := New(0, nil, 8)
	if len(r.Nodes()) != 0 {
		t.Fatal("nil-ID ring not empty")
	}
	if _, ok := r.Owner("k"); ok {
		t.Fatal("empty ring reported an owner")
	}
}

// owners returns up to n distinct nodes for key in clockwise
// preference order: the owner first, then the fallback nodes a
// rebalance would promote, the oracle of the remapping property. It
// returns fewer when the ring has fewer than n nodes.
func owners(r *Ring, key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.ids) {
		n = len(r.ids)
	}
	out := make([]string, 0, n)
	seen := make([]bool, len(r.ids))
	start := r.succ(hash64("key\x00" + key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.ids[p.node])
		}
	}
	return out
}
