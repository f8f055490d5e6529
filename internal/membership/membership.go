// Package membership is the fleet's node liveness table: a
// deterministic state machine over worker registrations, heartbeats,
// dispatch failures, and timeout ticks. It never reads the clock
// itself — every transition takes the observation time as a
// parameter — so a given call sequence always produces the same
// states and the same epoch numbers, and the package stays inside
// schedvet's determinism contract (docs/ANALYSIS.md).
//
// Each node is Alive, Suspect, or Dead:
//
//	Alive    heartbeating; eligible for placement and ring ownership
//	Suspect  a dispatch failed or heartbeats went silent past
//	         SuspectAfter; excluded from the ring, revived by the next
//	         successful heartbeat
//	Dead     silent past DeadAfter; excluded until it heartbeats again
//
// The table's epoch increments exactly when the *eligible set* (the
// Alive nodes) changes. The balancer rebuilds its consistent-hash
// ring (package cachering) whenever the epoch moves, so "ring
// rebalances" and "membership epochs" are the same monotone counter.
package membership

import (
	"sort"
	"sync"
	"time"
)

// State is a node's liveness classification.
type State int

// Liveness states, ordered from healthy to gone.
const (
	Alive State = iota
	Suspect
	Dead
)

// String returns the lower-case state name (used in /statsz).
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// Config sets the liveness timeouts.
type Config struct {
	// SuspectAfter is the heartbeat silence that demotes Alive to
	// Suspect.
	SuspectAfter time.Duration
	// DeadAfter is the total silence that demotes Suspect to Dead.
	// Measured from the last successful heartbeat.
	DeadAfter time.Duration
}

// Node is one worker's snapshot.
type Node struct {
	// ID is the worker's stable identity (the balancer uses its URL).
	ID string `json:"id"`
	// State is the liveness classification at snapshot time.
	State State `json:"-"`
	// StateName is State rendered for JSON consumers.
	StateName string `json:"state"`
	// LastSeen is the time of the last successful heartbeat (zero if
	// the node never heartbeated).
	LastSeen time.Time `json:"last_seen"`
	// QueueDepth is the depth the node reported on its last heartbeat.
	QueueDepth int `json:"queue_depth"`
	// Failures counts dispatch failures reported against the node
	// since its last successful heartbeat.
	Failures int `json:"failures"`
}

// node is the mutable table entry behind a Node snapshot.
type node struct {
	id         string
	state      State
	lastSeen   time.Time
	queueDepth int
	failures   int
}

// Snapshot is a point-in-time copy of the whole table.
type Snapshot struct {
	// Epoch is the eligible-set version; it increments exactly when
	// the Alive set changes.
	Epoch uint64 `json:"epoch"`
	// Transitions counts every state change, including ones that do
	// not move the epoch (Suspect to Dead).
	Transitions uint64 `json:"transitions"`
	// Nodes lists every registered node in ID order.
	Nodes []Node `json:"nodes"`
}

// Table tracks the fleet. Create one with NewTable; methods are safe
// for concurrent use.
type Table struct {
	mu    sync.Mutex
	cfg   Config
	byID  map[string]*node
	nodes []*node // the same entries, sorted by ID

	epoch       uint64
	transitions uint64
}

// NewTable returns an empty table with the given timeouts.
func NewTable(cfg Config) *Table {
	return &Table{cfg: cfg, byID: make(map[string]*node)}
}

// Register adds a node as Alive (or revives an existing entry). The
// epoch moves if the eligible set changed.
func (t *Table) Register(id string, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.byID[id]
	if !ok {
		n = &node{id: id, state: Dead}
		t.byID[id] = n
		t.nodes = append(t.nodes, n)
		sort.Slice(t.nodes, func(i, j int) bool { return t.nodes[i].id < t.nodes[j].id })
	}
	t.setStateLocked(n, Alive)
	n.lastSeen = now
	n.failures = 0
}

// Heartbeat records a successful probe of id: the node becomes Alive
// (reviving Suspect and Dead nodes), its queue depth is updated, and
// its failure streak resets. Unknown IDs are registered implicitly.
// It reports whether the eligible set changed.
func (t *Table) Heartbeat(id string, queueDepth int, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.byID[id]
	if !ok {
		n = &node{id: id, state: Dead}
		t.byID[id] = n
		t.nodes = append(t.nodes, n)
		sort.Slice(t.nodes, func(i, j int) bool { return t.nodes[i].id < t.nodes[j].id })
	}
	before := t.epoch
	t.setStateLocked(n, Alive)
	n.lastSeen = now
	n.queueDepth = queueDepth
	n.failures = 0
	return t.epoch != before
}

// ReportFailure records a dispatch failure against id: an Alive node
// becomes Suspect immediately (fast failover does not wait for the
// heartbeat timeout). It reports whether the eligible set changed.
func (t *Table) ReportFailure(id string, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.byID[id]
	if !ok {
		return false
	}
	n.failures++
	if n.state != Alive {
		return false
	}
	before := t.epoch
	t.setStateLocked(n, Suspect)
	return t.epoch != before
}

// Tick applies the timeout rules at the observation time now: Alive
// nodes silent past SuspectAfter become Suspect, and nodes silent
// past DeadAfter become Dead. It reports whether the eligible set
// changed.
func (t *Table) Tick(now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	before := t.epoch
	for _, n := range t.nodes {
		silence := now.Sub(n.lastSeen)
		switch n.state {
		case Alive:
			if silence > t.cfg.SuspectAfter {
				t.setStateLocked(n, Suspect)
			}
		case Suspect:
			if silence > t.cfg.DeadAfter {
				t.setStateLocked(n, Dead)
			}
		}
	}
	return t.epoch != before
}

// setStateLocked moves n to state, counting the transition and
// bumping the epoch when eligibility (Alive vs not) flips.
func (t *Table) setStateLocked(n *node, state State) {
	if n.state == state {
		return
	}
	wasEligible := n.state == Alive
	n.state = state
	t.transitions++
	if wasEligible != (state == Alive) {
		t.epoch++
	}
}

// Epoch returns the current eligible-set version.
func (t *Table) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Eligible returns the Alive node IDs in sorted order — the input to
// cachering.New, so ring contents are a pure function of the epoch.
func (t *Table) Eligible() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]string, 0, len(t.nodes))
	for _, n := range t.nodes {
		if n.state == Alive {
			ids = append(ids, n.id)
		}
	}
	return ids
}

// Snapshot copies the whole table in ID order.
func (t *Table) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{Epoch: t.epoch, Transitions: t.transitions, Nodes: make([]Node, len(t.nodes))}
	for i, n := range t.nodes {
		s.Nodes[i] = Node{
			ID:         n.id,
			State:      n.state,
			StateName:  n.state.String(),
			LastSeen:   n.lastSeen,
			QueueDepth: n.queueDepth,
			Failures:   n.failures,
		}
	}
	return s
}

// State returns one node's current state (Dead, false if unknown).
func (t *Table) State(id string) (State, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.byID[id]
	if !ok {
		return Dead, false
	}
	return n.state, true
}
