package assign

import (
	"fmt"
	"slices"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
	"clustersched/internal/mrt"
	"clustersched/internal/obs"
)

// Result is a completed cluster assignment: the input graph plus one
// copy node per reserved copy operation, with every node annotated
// with its cluster. The modulo scheduler consumes this and nothing
// else — it needs no knowledge of the assignment algorithm.
type Result struct {
	// Graph contains the original nodes (same IDs) followed by the
	// inserted copy nodes.
	Graph *ddg.Graph
	// ClusterOf maps every Graph node to its cluster. For copy nodes
	// this is the source cluster, whose read port the copy consumes.
	ClusterOf []int
	// CopyTargets lists, for copy nodes, the clusters the copy writes
	// to; nil for ordinary operations.
	CopyTargets [][]int
	// NumOriginal is the number of nodes of the input graph; nodes with
	// ID >= NumOriginal are copies.
	NumOriginal int
	// Copies is the number of inserted copy operations.
	Copies int
	// Evictions counts node removals spent by the iterative algorithm.
	Evictions int
}

// Run assigns every operation of g to a cluster of m at initiation
// interval ii. It reports false when no valid assignment was found at
// this II (the caller then retries with ii+1, per the paper's
// Figure 5 process). One-shot form of Problem.RunAt; escalation loops
// should build one Problem and probe it instead.
//
//schedvet:test-api the one-shot assignment the scheduler, emit and allocator tests build fixtures with
func Run(g *ddg.Graph, m *machine.Config, ii int, opts Options) (*Result, bool) {
	if ii <= 0 {
		panic(fmt.Sprintf("assign: non-positive II %d", ii))
	}
	return problemAt(g, m, ii, opts).RunAt(ii, nil, opts.Trace)
}

// Materialize builds the annotated result (copy nodes, rerouted
// edges, resource accounting) for an externally chosen cluster vector,
// reporting false when the machine cannot carry the implied copies at
// this II. It is the entry point for baselines that decide the
// partition by other means (e.g. post-scheduling partitioning).
func Materialize(g *ddg.Graph, m *machine.Config, clusterOf []int, ii int) (*Result, bool) {
	if len(clusterOf) != g.NumNodes() {
		panic("assign: Materialize cluster vector length mismatch")
	}
	a := newAssigner(g, m, ii, Options{scratchEval: true})
	copy(a.cluster, clusterOf)
	if d := a.deriveScratch(); !d.ok {
		return nil, false
	}
	return a.buildResult(), true
}

// nextUnassigned returns the highest-priority node still unassigned.
//
//schedvet:alloc-free
func (a *assigner) nextUnassigned(prio []int) int {
	for _, n := range prio {
		if a.cluster[n] < 0 {
			return n
		}
	}
	return -1
}

// candidate holds the bookkeeping of one tentative assignment of the
// current node to one cluster (paper Section 4.2).
type candidate struct {
	cl        int
	feasible  bool // the node and all its required copies fit
	canOp     bool // the node alone fits (Figure 11, line 3)
	newCopies int  // required copies generated by this placement
	pcrOK     bool // predicted copy requests <= maximum reservable copies
	freeSlots int  // free FU slot-cycles on the cluster after placement
	sccMate   bool // another node of the same SCC already lives here
	notPrev   bool // the node has not been assigned here before
	conflicts int  // assigned neighbours on other clusters (Figure 11, line 4)
}

// evaluate tentatively assigns node n to every cluster and records the
// selection metrics; the node is left unassigned. The incremental
// engine answers each tentative placement with an O(degree) delta; the
// scratch path replays two full derives per cluster and remains as the
// reference oracle (Options.scratchEval runs on it exclusively, and
// Options.selfCheck runs both and insists they agree).
func (a *assigner) evaluate(n int) []candidate {
	if a.eng == nil {
		return a.evaluateScratch(n, make([]candidate, a.m.NumClusters()))
	}
	cands := a.evaluateIncremental(n)
	if a.opts.selfCheck {
		saved := a.opts.Trace
		a.opts.Trace = nil // the oracle replay must not double-count
		ref := a.evaluateScratch(n, make([]candidate, a.m.NumClusters()))
		a.opts.Trace = saved
		for i := range cands {
			if cands[i] != ref[i] {
				panic(fmt.Sprintf("assign: node %d cluster %d: engine candidate %+v, reference %+v",
					n, i, cands[i], ref[i]))
			}
		}
	}
	return cands
}

// evaluateIncremental is the engine-backed evaluate: one capacity-only
// probe per candidate cluster, allocation-free in steady state.
//
//schedvet:alloc-free
func (a *assigner) evaluateIncremental(n int) []candidate {
	e := a.eng
	kind := a.g.Nodes[n].Kind
	cands := a.cands
	deltas := 0
	for cl := range cands {
		c := candidate{cl: cl}
		c.notPrev = a.prevMask[n]&(1<<uint(cl)) == 0
		c.canOp = e.cap.ProbeOp(mrt.OpAt(n, cl, kind), 0)
		if scc := a.sccOf[n]; scc >= 0 {
			for _, mate := range a.sccMembers[scc] {
				if mate != n && a.cluster[mate] == cl {
					c.sccMate = true
					break
				}
			}
		}
		for _, p := range a.predsOf(n) {
			if p != n && a.cluster[p] >= 0 && a.cluster[p] != cl {
				c.conflicts++
			}
		}
		for _, s := range a.succsOf(n) {
			if s != n && a.cluster[s] >= 0 && a.cluster[s] != cl {
				c.conflicts++
			}
		}
		if c.canOp {
			if pr := e.probe(n, cl); pr.feasible {
				deltas += 2 // one delta in, one delta back out
				c.feasible = true
				c.newCopies = pr.newCopies
				c.pcrOK = pr.pcrSum <= pr.mrc
				if c.pcrOK && !a.opts.DisableIncomingPrediction {
					c.pcrOK = pr.picCnt <= pr.mri
				}
				if !c.pcrOK && a.opts.Variant.fullSelection() {
					a.opts.Trace.PCRReject(a.ii, n, cl)
				}
				c.freeSlots = pr.freeSlots
			}
		}
		cands[cl] = c
	}
	a.opts.Trace.AssignDeltas(deltas)
	return cands
}

// evaluateScratch is the pre-engine reference implementation: a base
// derive plus one full derive per candidate cluster.
func (a *assigner) evaluateScratch(n int, cands []candidate) []candidate {
	base := a.derive()
	kind := a.g.Nodes[n].Kind
	for cl := range cands {
		c := candidate{cl: cl}
		c.notPrev = a.prevMask[n]&(1<<uint(cl)) == 0
		c.canOp = base.ok && base.cap.ProbeOp(mrt.OpAt(n, cl, kind), 0)
		for _, mate := range a.sccMatesScan(n) {
			if a.cluster[mate] == cl {
				c.sccMate = true
				break
			}
		}
		for _, p := range a.g.Predecessors(n) {
			if p != n && a.cluster[p] >= 0 && a.cluster[p] != cl {
				c.conflicts++
			}
		}
		for _, s := range a.g.Successors(n) {
			if s != n && a.cluster[s] >= 0 && a.cluster[s] != cl {
				c.conflicts++
			}
		}
		a.cluster[n] = cl
		d := a.deriveScratch()
		a.cluster[n] = -1
		if d.ok {
			c.feasible = true
			c.newCopies = d.copies - base.copies
			c.pcrOK = a.withCluster(n, cl, func() bool {
				if a.pcr(d, cl) > d.cap.MaxReservableCopies(cl) {
					return false
				}
				if a.opts.DisableIncomingPrediction {
					return true
				}
				return a.pic(cl) <= a.maxReservableIncoming(d, cl)
			})
			if !c.pcrOK && a.opts.Variant.fullSelection() {
				a.opts.Trace.PCRReject(a.ii, n, cl)
			}
			c.freeSlots = d.cap.FreeSlots(cl)
		}
		cands[cl] = c
	}
	return cands
}

// withCluster runs f with node n temporarily assigned to cl.
func (a *assigner) withCluster(n, cl int, f func() bool) bool {
	a.cluster[n] = cl
	defer func() { a.cluster[n] = -1 }()
	return f()
}

// sccMatesScan returns the other members of n's non-trivial SCC by
// scanning the whole index — the reference form of the precomputed
// sccMembers lists the hot path uses.
func (a *assigner) sccMatesScan(n int) []int {
	if a.sccOf[n] < 0 {
		return nil
	}
	var mates []int
	for i, s := range a.sccOf {
		if s == a.sccOf[n] && i != n {
			mates = append(mates, i)
		}
	}
	return mates
}

// feasibleList collects the feasible candidate clusters into a
// reusable buffer, valid until the next call.
//
//schedvet:alloc-free
func (a *assigner) feasibleList(cands []candidate) []int {
	list := a.listBuf[:0]
	for i := range cands {
		if cands[i].feasible {
			list = append(list, cands[i].cl)
		}
	}
	a.listBuf = list
	return list
}

// place commits node n to cluster cl: the engine applies the (already
// evaluated as feasible) delta, then the Section 4.3.2 bookkeeping
// updates.
//
//schedvet:alloc-free
func (a *assigner) place(n, cl int) {
	if a.eng != nil {
		if !a.eng.apply(n, cl) {
			panic("assign: feasible candidate failed to apply")
		}
		a.opts.Trace.AssignDeltas(1)
	}
	a.commit(n, cl)
}

// selCand keeps the clusters of list satisfying pred unless none does,
// in which case the list is unchanged — the paper's Select (Figure 9).
// The filter compacts in place; pred is always a package-level
// function so the call allocates nothing.
//
//schedvet:alloc-free
func selCand(list []int, cands []candidate, pred func(*candidate) bool) []int {
	k := 0
	for _, cl := range list {
		if pred(&cands[cl]) {
			list[k] = cl
			k++
		}
	}
	if k > 0 {
		return list[:k]
	}
	return list
}

// argBestCand keeps the clusters maximizing score, preserving order,
// compacting in place.
//
//schedvet:alloc-free
func argBestCand(list []int, cands []candidate, score func(*candidate) int) []int {
	best := score(&cands[list[0]])
	for _, cl := range list[1:] {
		if s := score(&cands[cl]); s > best {
			best = s
		}
	}
	k := 0
	for _, cl := range list {
		if score(&cands[cl]) == best {
			list[k] = cl
			k++
		}
	}
	return list[:k]
}

// Selection predicates and scores, package-level so passing them does
// not allocate a closure.
//
//schedvet:alloc-free
func candNotPrev(c *candidate) bool { return c.notPrev }

//schedvet:alloc-free
func candCanOp(c *candidate) bool { return c.canOp }

//schedvet:alloc-free
func candSCCMate(c *candidate) bool { return c.sccMate }

//schedvet:alloc-free
func candPCROK(c *candidate) bool { return c.pcrOK }

//schedvet:alloc-free
func scoreNewCopies(c *candidate) int { return -c.newCopies }

//schedvet:alloc-free
func scoreFreeSlots(c *candidate) int { return c.freeSlots }

//schedvet:alloc-free
func scoreConflicts(c *candidate) int { return -c.conflicts }

// selectCluster applies the cluster selection chain of Figure 10 (full
// heuristic) or its trivial prefix (simple variants) to the non-empty
// feasible list and returns the chosen cluster.
//
//schedvet:alloc-free
func (a *assigner) selectCluster(n int, list []int, cands []candidate) int {
	if a.opts.Variant.iterative() {
		// Selection A: avoid clusters the node was evicted from.
		list = selCand(list, cands, candNotPrev)
	}
	if !a.opts.Variant.fullSelection() {
		return list[0]
	}
	if a.sccOf[n] >= 0 {
		list = selCand(list, cands, candSCCMate)
	}
	list = selCand(list, cands, candPCROK)
	list = argBestCand(list, cands, scoreNewCopies)
	list = argBestCand(list, cands, scoreFreeSlots)
	return list[0]
}

// commit finalizes node n on cluster cl and updates the
// previously-assigned bookkeeping of Section 4.3.2.
//
//schedvet:alloc-free
func (a *assigner) commit(n, cl int) {
	a.cluster[n] = cl
	a.seq++
	a.assignSeq[n] = a.seq
	all := uint64(1)<<uint(a.m.NumClusters()) - 1
	a.prevMask[n] |= 1 << uint(cl)
	if a.prevMask[n] == all {
		// Tried everywhere: clear the list so the node stays placeable.
		a.prevMask[n] = 1 << uint(cl)
	}
}

// forcePlace implements Figure 11 and Section 4.3.1: when no cluster
// can take node n, pick the least-bad cluster, force the node there,
// and evict the nodes conflicting with its resources (and with its
// required copies) until the assignment is consistent again. It
// returns the number of evictions spent and reports false when the
// backtracking budget is exhausted or no victim can relieve a
// violation.
//
// n is committed in cluster[] from the start, but the engine never
// holds it until it fits: each round tries to apply it, and on failure
// attributes the violation from engine state and evicts the victim
// with an O(degree) remove. No round derives or rebuilds from scratch.
//
//schedvet:alloc-free
func (a *assigner) forcePlace(n int, cands []candidate) (int, bool) {
	list := a.fpBuf[:0]
	for i := 0; i < a.m.NumClusters(); i++ {
		list = append(list, i)
	}
	a.fpBuf = list
	list = selCand(list, cands, candNotPrev)
	list = selCand(list, cands, candCanOp)
	list = argBestCand(list, cands, scoreConflicts)
	target := list[0]

	a.commit(n, target)
	a.opts.Trace.AssignCommit(a.ii, n, target, true)
	used := 0
	for {
		if a.opts.Trace.Canceled() {
			return used, false
		}
		viol, ok := a.settle(n)
		if ok {
			return used, true
		}
		victim := a.pickVictim(viol.candidates, n)
		if victim < 0 {
			return used, false
		}
		if a.eng == nil {
			a.cluster[victim] = -1
		} else {
			a.cluster[n] = -1 // the engine does not hold n yet
			a.eng.remove(victim)
			a.cluster[n] = target
			a.opts.Trace.AssignDeltas(1)
		}
		a.opts.Trace.Eviction(a.ii, n, victim)
		used++
		a.budget--
		if a.budget <= 0 {
			a.opts.Trace.BudgetExhausted(obs.PhaseAssign, a.ii, n)
			return used, false
		}
	}
}

// settle reports whether the forced node n fits on its committed
// cluster as the vector stands, making the placement final if so, or
// else the first violation a scratch derive of the vector reports. The
// engine answers with one apply and, when that fails, one
// engine.violation scan; reference mode derives. Under
// Options.selfCheck the engine's answer is compared with the derive's.
func (a *assigner) settle(n int) (violation, bool) {
	if a.eng == nil {
		d := a.deriveScratch()
		return d.viol, d.ok
	}
	var ref derived
	if a.opts.selfCheck {
		saved := a.opts.Trace
		a.opts.Trace = nil // the oracle replay must not count
		ref = *a.deriveScratch()
		a.opts.Trace = saved
		ref.viol.candidates = append([]int(nil), ref.viol.candidates...)
	}
	target := a.cluster[n]
	a.cluster[n] = -1
	ok := a.eng.apply(n, target)
	a.opts.Trace.AssignDeltas(1)
	var viol violation
	if !ok {
		a.cluster[n] = target
		viol = a.eng.violation(n)
	}
	if a.opts.selfCheck && (ok != ref.ok || ok && a.eng.copies != ref.copies ||
		viol.kind != ref.viol.kind || viol.cluster != ref.viol.cluster ||
		!slices.Equal(viol.candidates, ref.viol.candidates)) {
		panic(fmt.Sprintf("assign: forced node %d on cluster %d: engine (ok %v, %+v), reference (ok %v, copies %d, %+v)",
			n, target, ok, viol, ref.ok, ref.copies, ref.viol))
	}
	return viol, ok
}

// pickVictim chooses the most recently assigned candidate other than
// the protected node, so early (high-priority, usually SCC) decisions
// survive and recent tentative ones are revisited first. With
// Options.EvictOldest the preference flips (ablation).
//
//schedvet:alloc-free
func (a *assigner) pickVictim(cands []int, protect int) int {
	victim, best := -1, 0
	for _, v := range cands {
		if v == protect || a.cluster[v] < 0 {
			continue
		}
		seq := a.assignSeq[v]
		if a.opts.EvictOldest {
			seq = -seq
		}
		if victim == -1 || seq > best {
			best = seq
			victim = v
		}
	}
	return victim
}

// finalRecords returns the committed copy records in derive order
// (producers ascending). With the engine live they are already on
// hand; the scratch path (Materialize, unified machines, reference
// mode) derives them.
func (a *assigner) finalRecords() ([]copyRecord, int) {
	if a.eng != nil {
		var records []copyRecord
		for p := 0; p < a.g.NumNodes(); p++ {
			for _, r := range a.eng.recs[p] {
				records = append(records, copyRecord{
					producer: p, src: r.src, targets: a.eng.targets(p, r), link: r.link})
			}
		}
		return records, a.eng.copies
	}
	d := a.derive()
	if !d.ok {
		panic("assign: buildResult on inconsistent assignment")
	}
	return d.records, d.copies
}

// buildResult materializes the annotated graph: original nodes with
// their cluster annotations plus one copy node per reserved copy, with
// consumer edges rerouted through the copy that provides the value on
// the consumer's cluster.
func (a *assigner) buildResult() *Result {
	records, copies := a.finalRecords()
	n := a.g.NumNodes()
	clusterOf := make([]int, n, n+len(records))
	copy(clusterOf, a.cluster)
	copyTargets := make([][]int, n, n+len(records))

	// The result graph is built directly: original nodes, then one copy
	// node per record, then the rerouted edge set — no intermediate
	// clone whose edges would be rebuilt anyway.
	rerouted := ddg.NewGraph(n+len(records), a.g.NumEdges()+len(records))
	for _, node := range a.g.Nodes {
		rerouted.AddNode(node.Kind, node.Name)
	}

	// providerOf[p*nc+cl] is 1 + the node whose result carries p's
	// value on cluster cl (p itself at home, else a copy node), 0 when
	// p's value is not available there.
	nc := a.m.NumClusters()
	providerOf := make([]int32, n*nc)
	provider := func(p, cl int) int {
		return int(providerOf[p*nc+cl]) - 1
	}
	// feeds[i] is the edge from copy node i's value source to the copy;
	// a copy's source provider is its producer's home node or an earlier
	// copy on the source cluster, so feed edges never cross clusters and
	// are appended after the rerouted originals, preserving the edge
	// order the clone-based construction produced.
	feeds := make([][2]int, 0, len(records))
	for _, r := range records {
		p := r.producer
		if providerOf[p*nc+a.cluster[p]] == 0 {
			providerOf[p*nc+a.cluster[p]] = int32(p) + 1
		}
		src := provider(p, r.src)
		k := rerouted.AddNode(ddg.OpCopy, "cp("+nodeLabel(a.g, p)+")")
		clusterOf = append(clusterOf, r.src)
		copyTargets = append(copyTargets, append([]int(nil), r.targets...))
		feeds = append(feeds, [2]int{src, k})
		for _, t := range r.targets {
			providerOf[p*nc+t] = int32(k) + 1
		}
	}

	// Reroute cross-cluster consumer edges through the providers.
	for _, e := range a.g.Edges {
		if clusterOf[e.From] != clusterOf[e.To] {
			p := provider(e.From, clusterOf[e.To])
			if p < 0 {
				panic(fmt.Sprintf("assign: no provider for value %d on cluster %d", e.From, clusterOf[e.To]))
			}
			rerouted.AddEdge(p, e.To, e.Distance)
			continue
		}
		rerouted.AddEdge(e.From, e.To, e.Distance)
	}
	for _, f := range feeds {
		rerouted.AddEdge(f[0], f[1], 0)
	}

	return &Result{
		Graph:       rerouted,
		ClusterOf:   clusterOf,
		CopyTargets: copyTargets,
		NumOriginal: a.g.NumNodes(),
		Copies:      copies,
	}
}

func nodeLabel(g *ddg.Graph, n int) string {
	if g.Nodes[n].Name != "" {
		return g.Nodes[n].Name
	}
	return fmt.Sprintf("n%d", n)
}
