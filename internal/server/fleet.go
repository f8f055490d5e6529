// Fleet integration of one clusterd worker: the /fleetz heartbeat
// endpoint the balancer polls, and the canonical request-key
// computation clusterlb uses to route /v1/schedule requests to their
// consistent-hash owner (package cachering). Both sides derive the
// key from the same helpers as the cache lookup itself, so routing
// and storage cannot drift apart.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"
)

// KeyForRequest resolves a schedule request exactly like the
// /v1/schedule handler and returns its content-addressed cache key.
// It fails on whatever the handler would reject (missing machine, bad
// option spec, zero or several loops); the balancer falls back to
// load-based placement for such requests and lets the worker produce
// the authoritative error.
func KeyForRequest(req ScheduleRequest) (string, error) {
	m, _, _, optID, err := resolveRequest(req.Machine, req.Variant, req.Scheduler, req.BudgetPerNode, req.MaxIISlack)
	if err != nil {
		return "", err
	}
	loops, err := parseLoops(req.DDG, req.Source)
	if err != nil {
		return "", err
	}
	if len(loops) != 1 {
		return "", fmt.Errorf("schedule takes exactly one loop, got %d", len(loops))
	}
	_, key := loopKey(req.Name, loops[0], m, optID)
	return key, nil
}

// handleFleetz serves the worker-side heartbeat: identity, queue
// depth, and the per-shard cache picture the balancer's placement and
// rebalance decisions feed on.
func (s *Server) handleFleetz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	writeJSON(w, http.StatusOK, FleetzResponse{
		ID:            s.cfg.NodeID,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Accepting:     true,
		Inflight:      len(s.sem),
		MaxInflight:   cap(s.sem),
		Requests:      s.requests.Load(),
		Scheduled:     s.scheduled.Load(),
		Rejected:      s.rejected.Load(),
		Cache:         s.cache.StatsDetail(),
	})
}
