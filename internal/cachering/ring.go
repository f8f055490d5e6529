// Package cachering places the daemon's canonical cache keys onto a
// consistent-hash ring of workers, so every result has one stable
// owner and a membership change only remaps the keys that belonged to
// the nodes that came or went. The balancer routes /v1/schedule
// requests to the owner of their content hash (cache.Key); when a
// worker dies, only its arc of the ring moves to the survivors, and
// every other worker keeps serving its own entries from cache.
//
// A ring is immutable: the balancer builds a fresh one from the
// membership table's eligible set whenever the membership epoch
// moves, and swaps it in atomically. Ring contents are a pure
// function of (epoch, node IDs) — the package is
// determinism-critical under schedvet, and two balancers with the
// same view agree on every owner.
package cachering

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// virtualNodes is the per-node point count. 64 points per node keeps
// the largest ownership arc within a few percent of fair share for
// small fleets.
const virtualNodes = 64

type point struct {
	hash uint64
	node int32 // index into ids
}

// Ring is an immutable consistent-hash ring. Create one with New.
type Ring struct {
	epoch  uint64
	ids    []string
	points []point // sorted by (hash, node)
}

// hash64 maps s to a ring position. SHA-256 (truncated) rather than a
// small multiplicative hash: the point distribution decides ownership
// fairness, and the cache keys being hashed are themselves SHA-256
// hex, so keyed lookups stay uniform too.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// New builds the ring for one membership epoch over the given node
// IDs (deduplicated; order does not matter). An empty ID list yields
// an empty ring whose lookups report no owner.
func New(epoch uint64, ids []string) *Ring {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	dedup := sorted[:0]
	for i, id := range sorted {
		if i == 0 || id != sorted[i-1] {
			dedup = append(dedup, id)
		}
	}
	r := &Ring{epoch: epoch, ids: dedup}
	r.points = make([]point, 0, len(dedup)*virtualNodes)
	for ni, id := range dedup {
		for v := 0; v < virtualNodes; v++ {
			h := hash64("ring\x00" + id + "\x00" + strconv.Itoa(v))
			r.points = append(r.points, point{hash: h, node: int32(ni)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Epoch returns the membership epoch the ring was built for.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Nodes returns the ring's node IDs in sorted order. The slice is
// shared and must not be modified.
func (r *Ring) Nodes() []string { return r.ids }

// succ returns the index of the first point at or after h, wrapping.
func (r *Ring) succ(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the node owning key (the first ring point clockwise
// from the key's hash), or "", false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	p := r.points[r.succ(hash64("key\x00"+key))]
	return r.ids[p.node], true
}
