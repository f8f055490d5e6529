package obs

import "sync/atomic"

// FleetStats is the balancer's data-plane counter snapshot, exposed
// on clusterlb's /statsz next to the per-worker membership table. The
// placement counters say how requests were routed, the hedge counters
// say what the tail-latency duplicates bought, and RingRebalances
// counts membership epochs the consistent-hash ring moved through.
type FleetStats struct {
	// Placements counts requests dispatched to a worker (each request
	// once, however many attempts or hedges it took).
	Placements int64 `json:"placements"`
	// RingRouted counts schedule requests routed to their
	// consistent-hash owner; ChoiceRouted counts requests placed on the
	// least-loaded worker (batch, lint, and schedules whose owner was
	// unavailable or whose key could not be derived).
	RingRouted   int64 `json:"ring_routed"`
	ChoiceRouted int64 `json:"choice_routed"`
	// Failovers counts dispatch attempts abandoned on a transport
	// error and retried on another worker.
	Failovers int64 `json:"failovers"`
	// Hedges counts duplicate dispatches fired after the hedge delay;
	// HedgeWins is the subset where the duplicate answered first,
	// HedgeWasted where the original did.
	Hedges      int64 `json:"hedges"`
	HedgeWins   int64 `json:"hedge_wins"`
	HedgeWasted int64 `json:"hedge_wasted"`
	// RingRebalances counts consistent-hash ring rebuilds (one per
	// membership epoch the balancer observed).
	RingRebalances int64 `json:"ring_rebalances"`
	// HeartbeatProbes and HeartbeatFailures count /fleetz polls.
	HeartbeatProbes   int64 `json:"heartbeat_probes"`
	HeartbeatFailures int64 `json:"heartbeat_failures"`
}

// FleetCounters is the live, concurrency-safe form of FleetStats.
// The zero value is ready to use.
type FleetCounters struct {
	Placements        atomic.Int64
	RingRouted        atomic.Int64
	ChoiceRouted      atomic.Int64
	Failovers         atomic.Int64
	Hedges            atomic.Int64
	HedgeWins         atomic.Int64
	HedgeWasted       atomic.Int64
	RingRebalances    atomic.Int64
	HeartbeatProbes   atomic.Int64
	HeartbeatFailures atomic.Int64
}

// Snapshot copies the counters into their JSON form.
func (c *FleetCounters) Snapshot() FleetStats {
	return FleetStats{
		Placements:        c.Placements.Load(),
		RingRouted:        c.RingRouted.Load(),
		ChoiceRouted:      c.ChoiceRouted.Load(),
		Failovers:         c.Failovers.Load(),
		Hedges:            c.Hedges.Load(),
		HedgeWins:         c.HedgeWins.Load(),
		HedgeWasted:       c.HedgeWasted.Load(),
		RingRebalances:    c.RingRebalances.Load(),
		HeartbeatProbes:   c.HeartbeatProbes.Load(),
		HeartbeatFailures: c.HeartbeatFailures.Load(),
	}
}
