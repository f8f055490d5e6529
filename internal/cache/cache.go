// Package cache is the scheduling daemon's content-addressed result
// cache. A request is identified by a canonical hash (Key) of its
// data-dependence graph, machine configuration, and the pipeline
// options that affect the outcome; identical requests — however they
// were spelled — map to the same entry.
//
// The store is a sharded LRU with a byte budget: keys spread over
// independently locked shards so concurrent requests rarely contend,
// and each shard evicts from its cold end when its share of the budget
// overflows. Computation is deduplicated per key (singleflight): while
// one caller runs the pipeline for a key, every other caller for the
// same key waits for that one result instead of running the pipeline
// again. Hit, miss, coalesced-wait, and eviction counters are exposed
// through Stats for the daemon's /statsz endpoint.
//
// In front of the canonical key sits an optional alias tier: the
// Fingerprint of a request's exact bytes maps to the canonical key its
// reply was stored under (PutAlias), so a byte-identical repeat is
// served by GetAlias without parsing the request at all. Aliases live
// in the same shards, recency order, and byte budget as the replies;
// they hold a key, never a second copy of the body, and an alias whose
// reply was evicted simply misses.
package cache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/fnv"
	"io"
	"sync"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
)

// Key returns the canonical content hash of one scheduling request:
// every node (kind and name), every edge (endpoints and distance),
// every field of the machine configuration that can change the
// schedule or its rendering, and the caller's extra strings (variant,
// scheduler, budgets — anything else that selects a different result).
// The encoding is injective — lengths are written before variable-size
// parts — so two different requests cannot collide by concatenation.
// Like the pipeline itself, it requires non-nil inputs.
func Key(g *ddg.Graph, m *machine.Config, extra ...string) string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	wInt := func(v int) {
		n := binary.PutVarint(buf[:], int64(v))
		h.Write(buf[:n])
	}
	wStr := func(s string) {
		wInt(len(s))
		io.WriteString(h, s)
	}

	wStr("clustersched-key-v1")

	wInt(g.NumNodes())
	for _, n := range g.Nodes {
		wInt(int(n.Kind))
		wStr(n.Name)
	}
	wInt(len(g.Edges))
	for _, e := range g.Edges {
		wInt(e.From)
		wInt(e.To)
		wInt(e.Distance)
	}

	wStr(m.Name)
	wInt(int(m.Network))
	wInt(m.Buses)
	wInt(len(m.Clusters))
	for i := range m.Clusters {
		c := &m.Clusters[i]
		wInt(len(c.FUs))
		for _, fu := range c.FUs {
			wInt(int(fu))
		}
		wInt(c.ReadPorts)
		wInt(c.WritePorts)
	}
	wInt(len(m.Links))
	for _, l := range m.Links {
		wInt(l.A)
		wInt(l.B)
	}
	for _, lat := range m.Latencies {
		wInt(lat)
	}
	for _, np := range m.NonPipelined {
		if np {
			wInt(1)
		} else {
			wInt(0)
		}
	}

	wInt(len(extra))
	for _, s := range extra {
		wStr(s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Source classifies how GetOrCompute produced its value.
type Source int

// Value sources.
const (
	// Miss: this caller ran the compute function.
	Miss Source = iota
	// Hit: the value came straight from the store.
	Hit
	// Coalesced: another caller was already computing the same key;
	// this caller waited and shared that result.
	Coalesced
)

// String returns the lower-case source name (the daemon's X-Cache
// header value).
func (s Source) String() string {
	switch s {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "unknown"
	}
}

// ShardStats is one shard's slice of the counters: the same fields
// as Stats, scoped to the keys that hash into the shard. The fleet
// balancer and operators read these off /statsz to see shard skew —
// a hot shard shows up as an outsized Bytes/Evictions row.
type ShardStats struct {
	Hits      uint64 `json:"hits"`
	AliasHits uint64 `json:"alias_hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Aliases   int    `json:"aliases"`
	Bytes     int64  `json:"bytes"`
}

// Stats is a point-in-time snapshot of the cache's counters, summed
// over every shard.
type Stats struct {
	// Hits counts lookups served straight from the store, through
	// either tier: one per served hit.
	Hits uint64 `json:"hits"`
	// AliasHits counts the subset of Hits served through a Fingerprint
	// alias (GetAlias). Per shard it is counted where the reply lives.
	AliasHits uint64 `json:"alias_hits"`
	// Misses counts lookups that ran the compute function.
	Misses uint64 `json:"misses"`
	// Coalesced counts lookups that waited for an in-flight
	// computation of the same key instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts reply entries dropped to keep shards inside the
	// byte budget (evicted aliases are not counted).
	Evictions uint64 `json:"evictions"`
	// Entries counts stored replies and Aliases the alias entries.
	// Bytes is the budget charge of both; MaxBytes is the configured
	// budget.
	Entries  int   `json:"entries"`
	Aliases  int   `json:"aliases"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	// Shards is the per-shard breakdown, populated by StatsDetail only
	// (Stats leaves it nil to keep the aggregate snapshot cheap).
	Shards []ShardStats `json:"shards,omitempty"`
}

const numShards = 16

// entryOverhead approximates the per-entry bookkeeping cost (list
// element, map slot, entry header) charged against the byte budget on
// top of the key and value lengths.
const entryOverhead = 128

// DefaultMaxBytes is the byte budget used when New is given a
// non-positive one.
const DefaultMaxBytes = 64 << 20

// Cache is the sharded store. Create one with New; the zero value is
// not usable.
type Cache struct {
	shards        [numShards]shard
	maxShardBytes int64
	maxBytes      int64
}

// New returns a cache bounded to roughly maxBytes of keys plus values
// (DefaultMaxBytes when maxBytes <= 0). Entries larger than one
// shard's share of the budget are returned to their caller but never
// stored.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	c := &Cache{maxBytes: maxBytes, maxShardBytes: maxBytes / numShards}
	for i := range c.shards {
		c.shards[i].init()
	}
	return c
}

type entry struct {
	key        string
	val        []byte
	stamp      uint64 // shard clock at last use
	next, prev *entry // LRU list: next is colder, prev is hotter
}

// cost is the entry's charge against the byte budget.
func (e *entry) cost() int64 {
	return int64(len(e.key)) + int64(len(e.val)) + entryOverhead
}

// aliasSlot is one alias: a fingerprint and the canonical key it points
// to, as the Key digest's raw bytes. It holds no pointers, so the
// garbage collector never scans the alias tier however many aliases a
// shard holds. Aliases kept as heap entries with key strings would add
// to every mark phase, and the daemon's tail latency would show it.
type aliasSlot struct {
	fp         Fingerprint
	target     [sha256.Size]byte
	stamp      uint64 // shard clock at last use
	prev, next int32  // alias LRU links (next is colder); -1 ends a list
}

// aliasCost is an alias's charge against the byte budget.
const aliasCost = 2*sha256.Size + entryOverhead

type call struct {
	done chan struct{}
	val  []byte
	err  error
}

type shard struct {
	mu     sync.Mutex
	items  map[string]*entry
	flight map[string]*call
	// head is hottest, tail coldest; nil when empty.
	head, tail *entry
	bytes      int64

	// The aliases: slots indexed by the map, with their own LRU list
	// (ahead hottest, atail coldest) and a free list threaded through
	// next. Replies and aliases share one recency order through clock
	// stamps, so eviction takes whichever tail is older.
	aliases             map[Fingerprint]int32
	slots               []aliasSlot
	ahead, atail, afree int32
	clock               uint64

	hits, aliasHits, misses, coalesced, evictions uint64
}

func (s *shard) init() {
	s.items = make(map[string]*entry)
	s.flight = make(map[string]*call)
	s.aliases = make(map[Fingerprint]int32)
	s.ahead, s.atail, s.afree = -1, -1, -1
}

func (s *shard) tick() uint64 {
	s.clock++
	return s.clock
}

func (c *Cache) shardFor(key string) *shard {
	h := fnv.New32a()
	io.WriteString(h, key)
	return &c.shards[h.Sum32()%numShards]
}

// Fingerprint is the SHA-256 of a request's exact bytes: the identity
// of the alias tier.
type Fingerprint [sha256.Size]byte

// FingerprintOf hashes raw request bytes.
func FingerprintOf(raw []byte) Fingerprint { return sha256.Sum256(raw) }

// aliasShard picks fp's shard; a digest is already uniform, so its
// first byte is hash enough.
func (c *Cache) aliasShard(fp *Fingerprint) *shard {
	return &c.shards[int(fp[0])%numShards]
}

// GetAlias serves a reply through fp's alias: the value stored under
// the canonical key PutAlias recorded for fp. It reports false when fp
// has no alias or the alias dangles (its reply was evicted). A served
// value counts as one Hit and one AliasHit and refreshes both entries'
// recency. The returned slice is shared with the cache and must not be
// modified.
func (c *Cache) GetAlias(fp Fingerprint) ([]byte, bool) {
	as := c.aliasShard(&fp)
	as.mu.Lock()
	i, ok := as.aliases[fp]
	if !ok {
		as.mu.Unlock()
		return nil, false
	}
	as.touchAliasLocked(i)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], as.slots[i].target[:])
	as.mu.Unlock()

	s := c.shardFor(string(key[:]))
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[string(key[:])]
	if !ok {
		return nil, false
	}
	s.moveToFrontLocked(e)
	s.hits++
	s.aliasHits++
	return e.val, true
}

// PutAlias records fp → key when key is a Key digest holding a stored
// reply; a reply too large to store gets no alias. Re-recording fp
// repoints its alias. Callers must only alias a key whose reply fp's
// request would legitimately receive: GetAlias follows the alias
// without any check.
func (c *Cache) PutAlias(fp Fingerprint, key string) {
	var target [sha256.Size]byte
	if len(key) != hex.EncodedLen(len(target)) {
		return
	}
	if _, err := hex.Decode(target[:], []byte(key)); err != nil {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	_, ok := s.items[key]
	s.mu.Unlock()
	if !ok {
		return
	}
	as := c.aliasShard(&fp)
	as.mu.Lock()
	as.insertAliasLocked(fp, target, c.maxShardBytes)
	as.mu.Unlock()
}

// GetOrCompute returns the cached value for key, or runs fn once to
// produce it. Concurrent callers with the same key are coalesced: one
// runs fn, the rest wait and share its result. Successful values are
// stored (unless oversized); errors are never cached. A waiting
// caller whose own ctx ends returns ctx.Err() immediately; a waiter
// whose leader was canceled retries as the new leader, so one
// disconnecting client cannot poison identical live requests.
//
// The returned slice is shared with the cache and must not be
// modified.
func (c *Cache) GetOrCompute(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) ([]byte, Source, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := c.shardFor(key)
	for {
		s.mu.Lock()
		if e, ok := s.items[key]; ok {
			s.moveToFrontLocked(e)
			s.hits++
			val := e.val
			s.mu.Unlock()
			return val, Hit, nil
		}
		if cl, ok := s.flight[key]; ok {
			s.coalesced++
			s.mu.Unlock()
			// The race between the leader finishing and our context
			// expiring only decides who reports cancellation; the
			// cached bytes are identical on every outcome.
			//schedvet:allow nondet follower wakeup order does not affect results
			select {
			case <-cl.done:
				if cl.err == nil {
					return cl.val, Coalesced, nil
				}
				if errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded) {
					if ctx.Err() == nil {
						continue // leader was canceled, we are still live: take over
					}
					return nil, Coalesced, ctx.Err()
				}
				return nil, Coalesced, cl.err
			case <-ctx.Done():
				return nil, Coalesced, ctx.Err()
			}
		}
		cl := &call{done: make(chan struct{})}
		s.flight[key] = cl
		s.misses++
		s.mu.Unlock()

		cl.val, cl.err = fn(ctx)

		s.mu.Lock()
		delete(s.flight, key)
		if cl.err == nil {
			s.insertLocked(key, cl.val, c.maxShardBytes)
		}
		s.mu.Unlock()
		close(cl.done)
		return cl.val, Miss, cl.err
	}
}

// Get returns the cached value for key without computing anything.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[key]; ok {
		s.moveToFrontLocked(e)
		s.hits++
		return e.val, true
	}
	return nil, false
}

// Stats sums every shard's counters.
func (c *Cache) Stats() Stats {
	st := Stats{MaxBytes: c.maxBytes}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.AliasHits += s.aliasHits
		st.Misses += s.misses
		st.Coalesced += s.coalesced
		st.Evictions += s.evictions
		st.Entries += len(s.items)
		st.Aliases += len(s.aliases)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// StatsDetail is Stats with the per-shard breakdown attached, for
// /statsz consumers watching occupancy and eviction skew. Each shard
// is snapshotted under its own lock, so rows are individually
// consistent (the aggregate is their sum, not a global freeze).
func (c *Cache) StatsDetail() Stats {
	st := Stats{MaxBytes: c.maxBytes, Shards: make([]ShardStats, numShards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		row := ShardStats{
			Hits:      s.hits,
			AliasHits: s.aliasHits,
			Misses:    s.misses,
			Coalesced: s.coalesced,
			Evictions: s.evictions,
			Entries:   len(s.items),
			Aliases:   len(s.aliases),
			Bytes:     s.bytes,
		}
		s.mu.Unlock()
		st.Shards[i] = row
		st.Hits += row.Hits
		st.AliasHits += row.AliasHits
		st.Misses += row.Misses
		st.Coalesced += row.Coalesced
		st.Evictions += row.Evictions
		st.Entries += row.Entries
		st.Aliases += row.Aliases
		st.Bytes += row.Bytes
	}
	return st
}

// insertLocked stores the value and evicts from the cold end until the
// shard fits its budget again. Oversized values are not stored at all.
func (s *shard) insertLocked(key string, val []byte, maxBytes int64) {
	e := &entry{key: key, val: val}
	if e.cost() > maxBytes {
		return
	}
	if old, ok := s.items[key]; ok { // racing leaders after a retry
		s.bytes += int64(len(val)) - int64(len(old.val))
		old.val = val
		s.moveToFrontLocked(old)
	} else {
		s.items[key] = e
		s.bytes += e.cost()
		s.pushFrontLocked(e)
	}
	s.trimLocked(maxBytes)
}

// insertAliasLocked stores or repoints fp's alias to target.
func (s *shard) insertAliasLocked(fp Fingerprint, target [sha256.Size]byte, maxBytes int64) {
	if i, ok := s.aliases[fp]; ok {
		s.slots[i].target = target
		s.touchAliasLocked(i)
		return
	}
	i := s.afree
	if i >= 0 {
		s.afree = s.slots[i].next
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, aliasSlot{})
	}
	s.slots[i] = aliasSlot{fp: fp, target: target, prev: -1, next: -1}
	s.aliases[fp] = i
	s.bytes += aliasCost
	s.pushAliasLocked(i)
	s.trimLocked(maxBytes)
}

// trimLocked evicts from the cold end until the shard fits maxBytes:
// each step drops the least recently used reply or alias.
func (s *shard) trimLocked(maxBytes int64) {
	for s.bytes > maxBytes {
		switch {
		case s.tail != nil && (s.atail < 0 || s.tail.stamp < s.slots[s.atail].stamp):
			s.evictLocked(s.tail)
		case s.atail >= 0:
			s.evictAliasLocked(s.atail)
		default:
			return
		}
	}
}

func (s *shard) evictLocked(e *entry) {
	s.unlinkLocked(e)
	delete(s.items, e.key)
	s.bytes -= e.cost()
	s.evictions++
}

func (s *shard) evictAliasLocked(i int32) {
	s.unlinkAliasLocked(i)
	delete(s.aliases, s.slots[i].fp)
	s.bytes -= aliasCost
	s.slots[i].next = s.afree
	s.afree = i
}

func (s *shard) pushFrontLocked(e *entry) {
	e.stamp = s.tick()
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFrontLocked(e *entry) {
	if s.head == e {
		e.stamp = s.tick()
		return
	}
	s.unlinkLocked(e)
	s.pushFrontLocked(e)
}

func (s *shard) pushAliasLocked(i int32) {
	a := &s.slots[i]
	a.stamp = s.tick()
	a.prev, a.next = -1, s.ahead
	if s.ahead >= 0 {
		s.slots[s.ahead].prev = i
	}
	s.ahead = i
	if s.atail < 0 {
		s.atail = i
	}
}

func (s *shard) unlinkAliasLocked(i int32) {
	a := &s.slots[i]
	if a.prev >= 0 {
		s.slots[a.prev].next = a.next
	} else {
		s.ahead = a.next
	}
	if a.next >= 0 {
		s.slots[a.next].prev = a.prev
	} else {
		s.atail = a.prev
	}
	a.prev, a.next = -1, -1
}

func (s *shard) touchAliasLocked(i int32) {
	s.unlinkAliasLocked(i)
	s.pushAliasLocked(i)
}
