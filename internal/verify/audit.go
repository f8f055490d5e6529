package verify

import (
	"fmt"
	"sync"

	"clustersched/internal/ddg"
	"clustersched/internal/diag"
	"clustersched/internal/machine"
	"clustersched/internal/mrt"
	"clustersched/internal/sched"
)

// Schedule-audit diagnostic codes.
const (
	CodeIIMismatch     = "SCHED001" // schedule II differs from the input II
	CodeLengthMismatch = "SCHED002" // cycle count differs from node count
	CodeDependence     = "SCHED003" // consumer scheduled before its producer's latency
	CodeBadCluster     = "SCHED004" // node annotated onto a nonexistent cluster
	CodeBadCopy        = "SCHED005" // copy with no, self, or invalid targets
	CodeIncapableUnit  = "SCHED006" // op on a cluster with no capable unit
	CodeLocality       = "SCHED007" // operand read across clusters without a copy
	CodeOversubscribed = "SCHED008" // resource reserved twice in one kernel slot
)

// Audit re-validates a modulo schedule against its input and
// enumerates every violation — every broken dependence, every bad
// cluster annotation, every locality break, every oversubscribed
// resource — as diagnostics, in deterministic order. A valid schedule
// yields an empty list. Schedule is the first-error wrapper.
//
// When the cycle table's length does not match the graph, only that
// violation is reported: nothing else can be audited meaningfully.
func Audit(in sched.Input, s *sched.Schedule) []diag.Diagnostic {
	return audit(in, s, &tables)
}

// audit is Audit replaying the resources into a table drawn from (and
// returned to) pool, or into a new table when pool is nil.
func audit(in sched.Input, s *sched.Schedule, pool *sync.Pool) []diag.Diagnostic {
	var r diag.Reporter
	g := in.Graph
	if s.II != in.II {
		r.Errorf(CodeIIMismatch, "schedule", "schedule II %d differs from input II %d", s.II, in.II)
	}
	if len(s.CycleOf) != g.NumNodes() {
		r.Errorf(CodeLengthMismatch, "schedule", "%d cycles for %d nodes", len(s.CycleOf), g.NumNodes())
		return r.Diagnostics()
	}
	lat := in.Machine.Latency

	// Dependences: for every edge, consumer at least latency cycles
	// after the producer, minus II per iteration of distance.
	for i, e := range g.Edges {
		need := s.CycleOf[e.From] + lat(g.Nodes[e.From].Kind) - in.II*e.Distance
		if s.CycleOf[e.To] < need {
			r.Errorf(CodeDependence, fmt.Sprintf("edge %d", i),
				"edge %d (n%d@%d -> n%d@%d, dist %d) violated: need >= %d",
				i, e.From, s.CycleOf[e.From], e.To, s.CycleOf[e.To], e.Distance, need)
		}
	}

	// Cluster annotations and copy structure.
	badCluster := make([]bool, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		cl := clusterOf(in, n)
		if cl < 0 || cl >= in.Machine.NumClusters() {
			r.Errorf(CodeBadCluster, nodeSubject(n), "node %d assigned to invalid cluster %d", n, cl)
			badCluster[n] = true
			continue
		}
		if g.Nodes[n].Kind == ddg.OpCopy {
			targets := copyTargets(in, n)
			if len(targets) == 0 {
				r.Errorf(CodeBadCopy, nodeSubject(n), "copy node %d has no targets", n)
			}
			for _, t := range targets {
				if t == cl {
					r.Errorf(CodeBadCopy, nodeSubject(n), "copy node %d targets its own cluster %d", n, cl)
				} else if t < 0 || t >= in.Machine.NumClusters() {
					r.Errorf(CodeBadCopy, nodeSubject(n), "copy node %d targets invalid cluster %d", n, t)
					badCluster[n] = true
				}
			}
		} else if in.Machine.Clusters[cl].FUCountFor(g.Nodes[n].Kind) == 0 {
			r.Errorf(CodeIncapableUnit, nodeSubject(n), "node %d (%s) on cluster %d with no capable unit",
				n, g.Nodes[n].Kind, cl)
		}
	}

	// Cluster locality: every value an operation consumes must be
	// produced on (or copied to) the operation's own cluster.
	for i, e := range g.Edges {
		if badCluster[e.From] || badCluster[e.To] {
			continue // already reported; locality is meaningless here
		}
		consCl := clusterOf(in, e.To)
		prodCl := clusterOf(in, e.From)
		ok := prodCl == consCl
		if !ok && g.Nodes[e.From].Kind == ddg.OpCopy {
			for _, t := range copyTargets(in, e.From) {
				if t == consCl {
					ok = true
					break
				}
			}
		}
		if !ok {
			r.Errorf(CodeLocality, fmt.Sprintf("edge %d", i),
				"edge %d: node %d on cluster %d reads value of node %d on cluster %d without a copy",
				i, e.To, consCl, e.From, prodCl)
		}
	}

	// Resources: replay every placement into an empty table; any
	// collision or missing unit is a violation. Nodes on nonexistent
	// clusters were reported above and cannot be replayed.
	table := emptyTable(pool, in.Machine, in.II)
	if pool != nil {
		defer pool.Put(table)
	}
	for n := 0; n < g.NumNodes(); n++ {
		if badCluster[n] {
			continue
		}
		var op mrt.Op
		if g.Nodes[n].Kind == ddg.OpCopy {
			op = mrt.CopyAt(n, clusterOf(in, n), copyTargets(in, n))
		} else {
			op = mrt.OpAt(n, clusterOf(in, n), g.Nodes[n].Kind)
		}
		ok := table.CommitOp(op, s.CycleOf[n])
		if !ok {
			r.Errorf(CodeOversubscribed, nodeSubject(n),
				"node %d oversubscribes resources at cycle %d (slot %d)",
				n, s.CycleOf[n], s.CycleOf[n]%in.II)
		}
	}
	return r.Diagnostics()
}

// nodeSubject is a node diagnostic's subject, formatted only when a
// finding is reported.
func nodeSubject(n int) string { return fmt.Sprintf("node %d", n) }

// tables recycles Audit's reservation tables. Audit runs once per
// compiled loop and on every daemon cache miss, and a new table plus
// its placement arena per call is ~4 KB of garbage.
var tables sync.Pool

// emptyTable returns an empty reservation table for m at ii: a table
// from pool if it was built for the same machine, cleared by ResetII,
// or else a new one. A reset table is indistinguishable from a new
// one, so the replay stays independent of the schedulers' tables.
func emptyTable(pool *sync.Pool, m *machine.Config, ii int) *mrt.Cycle {
	if pool != nil {
		if t, ok := pool.Get().(*mrt.Cycle); ok && t.Machine() == m {
			t.ResetII(ii)
			return t
		}
	}
	return mrt.NewCycle(m, ii)
}
