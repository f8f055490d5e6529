package server

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"clustersched"
)

// maxSessionKeys caps the warm-session registry's keys. A daemon
// serves a handful of machine specs under a handful of option sets —
// the three headline machines under all four assignment variants is
// twelve — so sixteen keeps every real workload warm, and however many
// specs or budgets clients invent, at most maxSessionKeys x GOMAXPROCS
// idle sessions stay pinned.
const maxSessionKeys = 16

// sessionRegistry keeps warm clustersched.Sessions across requests:
// one free list per (machine spec, option identity) key, shared by
// /v1/schedule and /v1/batch misses, so a miss pays for scheduling its
// loop and not for the machine tables, lint verdict and assignment
// slabs a fresh Session would build. A session is used by one request
// at a time and goes back to its list afterwards, also after a
// canceled or timed-out schedule (pipeline.Session's reuse contract).
type sessionRegistry struct {
	mu    sync.Mutex
	pools map[string]*sessionPool

	reused, built, unpooled atomic.Int64
}

func newSessionRegistry() *sessionRegistry {
	return &sessionRegistry{pools: make(map[string]*sessionPool)}
}

// sessionPool is one key's free list. A pool with a nil free list is a
// throwaway handed out once the registry is full: every draw builds a
// session and nothing is kept.
type sessionPool struct {
	reg     *sessionRegistry
	m       *clustersched.Machine
	options []clustersched.Option
	free    chan *clustersched.Session
}

// pool returns the free list for machineSpec and optID, registering it
// on first use while the registry has room.
func (r *sessionRegistry) pool(machineSpec string, m *clustersched.Machine, options []clustersched.Option, optID []string) *sessionPool {
	key := machineSpec + "\x00" + strings.Join(optID, "\x00")
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.pools[key]; ok {
		return p
	}
	p := &sessionPool{reg: r, m: m, options: options}
	if len(r.pools) < maxSessionKeys {
		// GOMAXPROCS sessions keep every CPU busy; more than that are
		// only ever out at once under a burst, and are dropped.
		p.free = make(chan *clustersched.Session, runtime.GOMAXPROCS(0))
		r.pools[key] = p
	}
	return p
}

func (r *sessionRegistry) stats() SessionStats {
	return SessionStats{Reused: r.reused.Load(), Built: r.built.Load(), Unpooled: r.unpooled.Load()}
}

// get draws an idle session, or builds one.
func (p *sessionPool) get() *clustersched.Session {
	select {
	case sess := <-p.free:
		p.reg.reused.Add(1)
		return sess
	default:
	}
	if p.free == nil {
		p.reg.unpooled.Add(1)
	} else {
		p.reg.built.Add(1)
	}
	return clustersched.NewSession(p.m, p.options...)
}

// put returns sess to the free list, dropping it when the list is full
// or the pool is a throwaway.
func (p *sessionPool) put(sess *clustersched.Session) {
	select {
	case p.free <- sess:
	default:
	}
}

// sessionSchedule is the production Server.scheduleOne.
func sessionSchedule(ctx context.Context, sess *clustersched.Session, g *clustersched.Graph) (*clustersched.Result, error) {
	return sess.Schedule(ctx, g)
}
