package assign

import (
	"fmt"

	"clustersched/internal/ddg"
	"clustersched/internal/machine"
	"clustersched/internal/mrt"
	"clustersched/internal/obs"
	"clustersched/internal/order"
)

// assigner carries the mutable state of one assignment run at a fixed
// II. The single source of truth is the cluster[] vector. Resource use
// and copy structure are maintained two ways:
//
//   - The incremental engine (engine.go) keeps a capacity table with a
//     snapshot for apply rollback, per-producer copy records, and
//     per-cluster PCR/PIC aggregates, all updated in O(degree) when one
//     node's cluster changes. The evaluate/commit loop and forced
//     placement, violation attribution included, run on it exclusively.
//   - derive() recomputes everything from scratch. It is the reference
//     oracle: reference mode (Options.scratchEval) runs whole
//     assignments on it, Options.selfCheck compares every candidate
//     and every forced-placement violation against it, and the
//     differential tests use both to prove the engine byte-identical.
//     Materialize and unified machines, which have no engine, use it
//     for their one feasibility check.
type assigner struct {
	g    *ddg.Graph
	m    *machine.Config
	ii   int
	opts Options

	cluster   []int // per node: assigned cluster or -1
	assignSeq []int // per node: monotonic stamp of the last assignment
	seq       int
	prevMask  []uint64 // per node: clusters previously tried (selection A)
	sccOf     []int    // per node: non-trivial SCC index or -1
	budget    int

	// prio is the II-invariant assignment order (Section 4.1, or plain
	// node IDs with Options.NaiveOrdering), computed once per problem
	// and reused across candidate IIs. Empty for unified machines.
	prio []int

	// partial holds the consistent partial assignment captured when a
	// run fails, the warm seed for the next candidate II; hasPartial
	// gates it (a canceled run leaves no seed).
	partial    []int
	hasPartial bool

	eng *engine // nil in reference (scratch) mode and in Materialize

	// Adjacency, precomputed once at construction: the distinct sorted
	// neighbour IDs ddg.Graph.Successors/Predecessors would return,
	// flattened CSR-style so the hot loops index instead of allocate.
	succAdj, succOff []int
	predAdj, predOff []int

	// sccMembers lists, per non-trivial SCC, its member node IDs in
	// ascending order; sccOf indexes into it. Replaces the O(V) scan
	// the old per-evaluate sccMates performed.
	sccMembers [][]int

	// Machine topology precomputes: BFS paths and link indices between
	// every cluster pair, shared read-only across runs on the same
	// machine (see machine.TopologyOf).
	topo *machine.Topology

	// Reusable evaluate/selection buffers (allocation-free hot loop).
	cands   []candidate
	listBuf []int
	fpBuf   []int

	// Reusable derive scratch: epoch-stamped marks replacing the
	// per-call map[int]bool sets, and owner/victim buffers reused
	// across derives. A buffer's content is valid only until the next
	// derive call, which is how every caller uses it.
	fuOwners   [][]int
	chMark     []int // per cluster: chained-copy availability epoch
	chEpoch    int
	victimMark []int // per node: copyVictims dedup epoch
	vEpoch     int
	victimBuf  []int
	consBuf    []int

	// scratchD is the reusable derived for call sites that hold at
	// most one derived at a time (deriveScratch). Sites that compare
	// two deriveds or let records escape allocate fresh via derive().
	scratchD *derived

	// scratchRC is the slab-carved backing of scratchD.rc; bind re-points
	// the derived at it so the scratch survives re-targeting the
	// assigner at a new graph.
	scratchRC []int

	// slabInts backs every per-graph []int above (including the
	// engine's); bind re-carves it for each graph, so re-targeting a
	// session-owned Problem at a new loop costs at most one slab
	// reallocation instead of one per field. carveOff is the carve
	// cursor, meaningful only during bind.
	slabInts []int
	carveOff int

	// ord holds the swing-ordering scratch; prio aliases its buffers
	// between binds.
	ord order.Scratch

	// ctorTrace is the trace the assigner was constructed with. bind
	// restores it so a rebound problem traces its construction build
	// exactly like a fresh one would, instead of into whatever per-run
	// trace the previous RunAt installed.
	ctorTrace *obs.Trace
}

// newAssigner builds the run state: the machine-sized buffers and
// topology tables once, then bind carves the per-graph state — cluster
// vector, SCC index, CSR adjacency, SCC member lists, and — unless the
// run is in reference mode — the incremental engine.
func newAssigner(g *ddg.Graph, m *machine.Config, ii int, opts Options) *assigner {
	a := &assigner{m: m, opts: opts, ctorTrace: opts.Trace}
	c := m.NumClusters()
	a.topo = machine.TopologyOf(m)
	a.cands = make([]candidate, c)
	a.listBuf = make([]int, 0, c)
	a.fpBuf = make([]int, 0, c)
	a.fuOwners = make([][]int, c*int(machine.NumFUClasses))
	a.bind(g, ii, nil, opts.Trace)
	return a
}

// bind re-targets the assigner at a new graph, re-carving every
// per-graph working array — its own and the engine's — out of the one
// reusable int slab. Construction is bind from an empty assigner, and
// a session-owned Problem rebinds instead of reconstructing, so across
// many loops the whole per-graph state costs at most one slab regrowth
// (or a shrink when the previous loop was much larger). Epoch-stamped
// mark buffers are zeroed and their epochs reset here: the slab may
// hold stale stamps from the previous graph that a fresh epoch counter
// would otherwise collide with. recs and tr are handed to the
// assignment order: g's per-SCC RecMII vector when the caller already
// holds it (nil computes it) and the trace its bound passes poll.
func (a *assigner) bind(g *ddg.Graph, ii int, recs []int, tr *obs.Trace) {
	a.g = g
	a.ii = ii
	a.opts.Trace = a.ctorTrace
	a.seq = 0
	a.budget = a.opts.budget(g.NumNodes())
	a.hasPartial = false
	a.chEpoch = 0
	a.vEpoch = 0

	comps := g.NonTrivialSCCs()
	a.sccMembers = a.sccMembers[:0]
	for _, c := range comps {
		a.sccMembers = append(a.sccMembers, c.Nodes)
	}

	v := g.NumNodes()
	c := a.m.NumClusters()
	adjTotal := 0
	for n := 0; n < v; n++ {
		adjTotal += len(g.Successors(n)) + len(g.Predecessors(n))
	}
	naive := a.m.Clustered() && a.opts.NaiveOrdering
	useEngine := !a.opts.scratchEval && a.m.Clustered()

	total := 10*v + 2 + adjTotal + c
	if naive {
		total += v
	}
	if useEngine {
		total += 2*v + c*v + 5*c + v*(c-1)
	}
	a.slabInts = ensureInts(a.slabInts, total)
	a.carveOff = 0

	a.cluster = a.carve(v)
	a.assignSeq = a.carve(v)
	for i := range a.cluster {
		a.cluster[i] = -1
		a.assignSeq[i] = 0
	}
	a.prevMask = ensureU64(a.prevMask, v)
	for i := range a.prevMask {
		a.prevMask[i] = 0
	}

	a.sccOf = a.carve(v)
	for i := range a.sccOf {
		a.sccOf[i] = -1
	}
	for ci, comp := range comps {
		for _, n := range comp.Nodes {
			a.sccOf[n] = ci
		}
	}

	a.succOff = a.carve(v + 1)
	a.predOff = a.carve(v + 1)
	a.succOff[0], a.predOff[0] = 0, 0
	adj := a.carve(adjTotal)
	idx := 0
	for n := 0; n < v; n++ {
		idx += copy(adj[idx:], g.Successors(n))
		a.succOff[n+1] = idx
	}
	a.succAdj = adj[:idx:idx]
	pbase := idx
	for n := 0; n < v; n++ {
		idx += copy(adj[idx:], g.Predecessors(n))
		a.predOff[n+1] = idx - pbase
	}
	a.predAdj = adj[pbase:idx]

	a.chMark = a.carve(c)
	a.victimMark = a.carve(v)
	for i := range a.chMark {
		a.chMark[i] = 0
	}
	for i := range a.victimMark {
		a.victimMark[i] = 0
	}
	a.victimBuf = a.carve(v)[:0]
	a.consBuf = a.carve(v)[:0]
	a.partial = a.carve(v)
	a.scratchRC = a.carve(v)
	for i := range a.scratchRC {
		a.scratchRC[i] = 0
	}
	if a.scratchD != nil {
		a.scratchD.rc = a.scratchRC
	}

	switch {
	case naive:
		a.prio = a.carve(v)
		for i := range a.prio {
			a.prio[i] = i
		}
	case a.m.Clustered():
		a.prio = a.ord.ComputeWith(g, a.m.Latency, recs, tr)
	default:
		a.prio = nil
	}

	if useEngine {
		if a.eng == nil {
			a.eng = newEngine(a)
		}
		a.eng.bindSlab(v, c)
		a.eng.reset(ii)
	}
	if a.carveOff != total {
		panic(fmt.Sprintf("assign: slab carve mismatch: used %d of %d", a.carveOff, total))
	}
}

// carve takes the next n ints off the bind slab as a fixed-capacity
// sub-slice, so appends on the result can never bleed into the
// neighbouring carve.
//
//schedvet:alloc-free
func (a *assigner) carve(n int) []int {
	s := a.slabInts[a.carveOff : a.carveOff+n : a.carveOff+n]
	a.carveOff += n
	return s
}

// ensureInts returns a slab of length n, reusing buf when its capacity
// fits without being grossly oversized: a backing array beyond a floor
// and more than 4x the need is dropped for a right-sized one, so one
// big loop does not pin memory for the rest of a session.
func ensureInts(buf []int, n int) []int {
	if cap(buf) < n || oversized(cap(buf), n) {
		return make([]int, n)
	}
	return buf[:n]
}

// ensureU64 is ensureInts for uint64 slabs.
func ensureU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n || oversized(cap(buf), n) {
		return make([]uint64, n)
	}
	return buf[:n]
}

// oversized reports whether a retained backing array of capacity c is
// wasteful for a need of n elements. The floor keeps small buffers
// stable: shrinking only ever saves meaningful memory on big ones.
//
//schedvet:alloc-free
func oversized(c, n int) bool {
	const shrinkFloor = 4096
	return c > shrinkFloor && c > 4*n
}

// reset returns the assigner to its freshly constructed state at a new
// candidate II, reusing every precomputed table and buffer — this is
// what makes an escalation step pay only the II-dependent work.
//
//schedvet:alloc-free callees
func (a *assigner) reset(ii int) {
	a.ii = ii
	for i := range a.cluster {
		a.cluster[i] = -1
		a.assignSeq[i] = 0
		a.prevMask[i] = 0
	}
	a.seq = 0
	a.budget = a.opts.budget(a.g.NumNodes())
	if a.eng != nil {
		a.eng.reset(ii)
	}
}

// seedFrom warm-starts the run by pre-committing the node→cluster
// pairs of seed, a consistent partial assignment captured from a
// failed run at a lower II. Every per-resource budget is units × II,
// so capacity grows monotonically with II and a placement that fit at
// II-1 almost always re-applies verbatim; a node that nonetheless
// fails to fit is simply left unassigned for the normal selection
// loop (an eviction of the stale seed entry), never failing the run.
// Nodes are applied in ascending ID order so the committed state —
// including the assignSeq stamps the victim policy reads — is a pure
// function of the seed, so a warm-started run is reproducible from
// its seed alone.
//
//schedvet:alloc-free
func (a *assigner) seedFrom(seed []int) {
	if a.eng != nil {
		deltas := 0
		for n, cl := range seed {
			if cl < 0 || cl >= a.m.NumClusters() {
				continue
			}
			if a.eng.apply(n, cl) {
				a.commit(n, cl)
				deltas++
			}
		}
		a.opts.Trace.AssignDeltas(deltas)
		return
	}
	// Reference mode: one scratch derive per seed entry. The engine's
	// apply succeeds exactly when a scratch derive of the same vector
	// would (the invariant the differential tests enforce), so this
	// commits the identical node set in the identical order.
	for n, cl := range seed {
		if cl < 0 || cl >= a.m.NumClusters() {
			continue
		}
		a.cluster[n] = cl
		if d := a.deriveScratch(); !d.ok {
			a.cluster[n] = -1
			continue
		}
		a.commit(n, cl)
	}
}

// capturePartial snapshots the current cluster vector as the warm seed
// for the next candidate II. skip, when >= 0, is a node whose forced
// placement made the vector inconsistent and is excluded; the
// remainder is a subset of the last consistent assignment and — since
// removing nodes only ever releases resources — consistent itself.
//
//schedvet:alloc-free
func (a *assigner) capturePartial(skip int) {
	copy(a.partial, a.cluster)
	if skip >= 0 {
		a.partial[skip] = -1
	}
	a.hasPartial = true
}

// succsOf and predsOf return the precomputed distinct sorted
// neighbours of n; the slices are owned by the assigner.
//
//schedvet:alloc-free
func (a *assigner) succsOf(n int) []int { return a.succAdj[a.succOff[n]:a.succOff[n+1]] }

//schedvet:alloc-free
func (a *assigner) predsOf(n int) []int { return a.predAdj[a.predOff[n]:a.predOff[n+1]] }

// violationKind labels which resource class ran out during a derive.
type violationKind int

const (
	violNone violationKind = iota
	violFU
	violReadPort
	violWritePort
	violBus
	violLink
)

// violation identifies the first over-subscribed resource found while
// deriving, with the nodes whose removal could relieve it. The
// candidates slice is backed by a reusable buffer, valid until the
// next derive.
type violation struct {
	kind       violationKind
	cluster    int // for FU and port violations
	candidates []int
}

// copyRecord describes one reserved copy operation: producer value p,
// moved from cluster src to the target clusters (one target and a link
// index on point-to-point machines).
type copyRecord struct {
	producer int
	src      int
	targets  []int
	link     int // -1 on broadcast machines
}

// derived is the resource view implied by the current cluster vector.
type derived struct {
	ok      bool
	viol    violation
	cap     *mrt.Capacity
	rc      []int // per node: copy operations generated for its value
	copies  int   // total copy operations
	records []copyRecord
	arena   []int // backing store for record target lists
}

// remoteTargets appends to d.arena the distinct target clusters that
// need node p's value (ascending) and returns the slice. Records keep
// sub-slices of the arena; append-driven regrowth leaves earlier
// slices pointing at the old backing array, whose contents are never
// mutated, so they stay valid.
//
//schedvet:alloc-free
func (a *assigner) remoteTargets(d *derived, p int) []int {
	home := a.cluster[p]
	start := len(d.arena)
	for _, s := range a.succsOf(p) {
		c := a.cluster[s]
		if c < 0 || c == home {
			continue
		}
		dup := false
		for _, t := range d.arena[start:] {
			if t == c {
				dup = true
				break
			}
		}
		if !dup {
			d.arena = append(d.arena, c)
		}
	}
	targets := d.arena[start:]
	insertionSort(targets)
	return targets
}

// assignedRemoteConsumers returns the assigned consumers of p living
// on other clusters, in a buffer valid until the next call.
//
//schedvet:alloc-free
func (a *assigner) assignedRemoteConsumers(p int) []int {
	home := a.cluster[p]
	out := a.consBuf[:0]
	for _, s := range a.succsOf(p) {
		c := a.cluster[s]
		if c >= 0 && c != home {
			out = append(out, s)
		}
	}
	a.consBuf = out
	return out
}

// insertionSort sorts the (small: at most one entry per cluster) slice
// ascending without allocating.
//
//schedvet:alloc-free
func insertionSort(x []int) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

// derive recomputes resource usage and copy structure from scratch.
// Operations are placed in node-ID order and producers visited in ID
// order with target clusters ascending, the same deterministic order
// used when materializing the annotated graph, so the capacity
// accounting and the final graph always agree. This is the reference
// the incremental engine is differentially tested against: its first
// violation and victim candidates are what engine.violation must
// reproduce from engine state.
func (a *assigner) derive() *derived {
	d := &derived{
		cap: mrt.NewCapacity(a.m, a.ii),
		rc:  make([]int, a.g.NumNodes()),
	}
	return a.deriveInto(d)
}

// deriveScratch is derive into a per-assigner reusable buffer. The
// result is valid only until the next deriveScratch call; it is for
// the call sites that inspect one derived and drop it (seeding and
// forced placement in reference mode, the unified-machine and
// Materialize checks). Sites that hold two deriveds at once
// (evaluateScratch) or whose records escape into the result
// (finalRecords) must use derive instead.
func (a *assigner) deriveScratch() *derived {
	return a.deriveInto(a.scratchDerived())
}

// scratchDerived returns the reusable derived, emptied and sized for
// the current II. engine.violation charges it too.
func (a *assigner) scratchDerived() *derived {
	d := a.scratchD
	if d == nil {
		d = &derived{
			cap: mrt.NewCapacity(a.m, a.ii),
			rc:  a.scratchRC,
		}
		a.scratchD = d
		return d
	}
	d.cap.ResetII(a.ii)
	for i := range d.rc {
		d.rc[i] = 0
	}
	d.records = d.records[:0]
	d.arena = d.arena[:0]
	d.copies = 0
	d.viol = violation{}
	d.ok = false
	return d
}

// deriveInto fills d (assumed zeroed/reset) from the current cluster
// vector and returns it.
//
//schedvet:alloc-free
func (a *assigner) deriveInto(d *derived) *derived {
	a.opts.Trace.AssignFullDerive()
	// Victims for a function-unit violation share the charge class of
	// the failing operation (on GP clusters every kind shares one
	// pool). fuOwners is keyed cluster*NumFUClasses+class.
	for i := range a.fuOwners {
		a.fuOwners[i] = a.fuOwners[i][:0]
	}
	for n := 0; n < a.g.NumNodes(); n++ {
		cl := a.cluster[n]
		if cl < 0 {
			continue
		}
		k := a.g.Nodes[n].Kind
		key := -1
		if cls := d.cap.ChargeClass(cl, k); cls >= 0 {
			key = cl*int(machine.NumFUClasses) + int(cls)
		}
		if !d.cap.CommitOp(mrt.OpAt(n, cl, k), 0) {
			var owners []int
			if key >= 0 {
				owners = a.fuOwners[key]
			}
			d.viol = violation{kind: violFU, cluster: cl, candidates: owners}
			return d
		}
		a.fuOwners[key] = append(a.fuOwners[key], n)
	}

	for p := 0; p < a.g.NumNodes(); p++ {
		if a.cluster[p] >= 0 && !a.routeCopies(d, p) {
			return d
		}
	}
	d.ok = true
	return d
}

// routeCopies routes producer p's copies to the clusters of its
// assigned remote consumers and reserves them on d. On failure it
// fills in d.viol and reports false.
func (a *assigner) routeCopies(d *derived, p int) bool {
	targets := a.remoteTargets(d, p)
	switch {
	case len(targets) == 0:
		return true
	case a.m.Network == machine.Broadcast:
		return a.placeBroadcast(d, p, targets)
	default:
		return a.placeChained(d, p, targets)
	}
}

// placeBroadcast reserves a single broadcast copy of p's value to all
// target clusters. On failure it fills in the violation with victim
// candidates and reports false.
func (a *assigner) placeBroadcast(d *derived, p int, targets []int) bool {
	src := a.cluster[p]
	if !d.cap.CommitOp(mrt.CopyAt(p, src, targets), 0) {
		d.viol = a.broadcastViolation(d, p, src, targets)
		return false
	}
	d.rc[p] = 1
	d.copies++
	d.records = append(d.records, copyRecord{producer: p, src: src, targets: targets, link: -1})
	return true
}

// broadcastViolation attributes a failed broadcast copy of p from src
// to its scarce resource and gathers victim candidates.
func (a *assigner) broadcastViolation(d *derived, p, src int, targets []int) violation {
	consumers := a.assignedRemoteConsumers(p)
	switch {
	case d.cap.FreeReadPortSlots(src) <= 0:
		return violation{kind: violReadPort, cluster: src,
			candidates: a.copyVictims(d, p, consumers, func(r copyRecord) bool { return r.src == src })}
	case d.cap.FreeBusSlots() <= 0:
		return violation{kind: violBus,
			candidates: a.copyVictims(d, p, consumers, func(r copyRecord) bool { return true })}
	}
	for _, t := range targets {
		if d.cap.FreeWritePortSlots(t) <= 0 {
			return violation{kind: violWritePort, cluster: t,
				candidates: a.copyVictims(d, p, consumers, func(r copyRecord) bool { return hasTarget(r, t) })}
		}
	}
	return violation{}
}

// placeChained reserves point-to-point copies that make p's value
// available on every target cluster, forwarding through intermediate
// clusters along shortest link paths when the target is not adjacent
// (the grid machine of Section 2.1).
//
//schedvet:alloc-free
func (a *assigner) placeChained(d *derived, p int, targets []int) bool {
	home := a.cluster[p]
	a.chEpoch++
	avail := a.chMark
	avail[home] = a.chEpoch
	for _, t := range targets {
		if avail[t] == a.chEpoch {
			continue
		}
		path := a.pathOf(home, t)
		if path == nil {
			d.viol = violation{kind: violLink, candidates: nil}
			return false
		}
		for i := 0; i+1 < len(path); i++ {
			u, v := path[i], path[i+1]
			if avail[v] == a.chEpoch {
				continue
			}
			li := a.linkOf(u, v)
			d.arena = append(d.arena, v)
			if !d.cap.CommitOp(mrt.CopyAt(p, u, d.arena[len(d.arena)-1:]), 0) {
				d.arena = d.arena[:len(d.arena)-1]
				d.viol = a.linkViolation(d, p, u, v, li)
				return false
			}
			avail[v] = a.chEpoch
			d.rc[p]++
			d.copies++
			d.records = append(d.records, copyRecord{producer: p, src: u,
				targets: d.arena[len(d.arena)-1:], link: li})
		}
	}
	return true
}

// pathOf and linkOf are the precomputed forms of machine.Path and
// machine.LinkBetween.
//
//schedvet:alloc-free
func (a *assigner) pathOf(u, v int) []int { return a.topo.Path(u, v) }

//schedvet:alloc-free
func (a *assigner) linkOf(u, v int) int { return a.topo.LinkBetween(u, v) }

// linkViolation attributes a failed point-to-point copy to its scarce
// resource and gathers victim candidates.
func (a *assigner) linkViolation(d *derived, p int, u, v, li int) violation {
	consumers := a.assignedRemoteConsumers(p)
	switch {
	case d.cap.FreeReadPortSlots(u) <= 0:
		return violation{kind: violReadPort, cluster: u,
			candidates: a.copyVictims(d, p, consumers, func(r copyRecord) bool { return r.src == u })}
	case d.cap.FreeWritePortSlots(v) <= 0:
		return violation{kind: violWritePort, cluster: v,
			candidates: a.copyVictims(d, p, consumers, func(r copyRecord) bool { return hasTarget(r, v) })}
	default:
		return violation{kind: violLink,
			candidates: a.copyVictims(d, p, consumers, func(r copyRecord) bool { return r.link == li })}
	}
}

//schedvet:alloc-free
func hasTarget(r copyRecord, t int) bool {
	for _, x := range r.targets {
		if x == t {
			return true
		}
	}
	return false
}

// copyVictims gathers nodes whose removal could relieve a copy-resource
// violation: the producers of every reserved copy that touches the
// resource (selected by match), their assigned remote consumers, plus
// the failing producer p and its consumers. The result is backed by a
// reusable buffer, valid until the next derive.
func (a *assigner) copyVictims(d *derived, p int, consumers []int, match func(copyRecord) bool) []int {
	a.vEpoch++
	out := a.victimBuf[:0]
	add := func(n int) {
		if a.victimMark[n] != a.vEpoch {
			a.victimMark[n] = a.vEpoch
			out = append(out, n)
		}
	}
	for _, r := range d.records {
		if !match(r) {
			continue
		}
		add(r.producer)
		home := a.cluster[r.producer]
		for _, s := range a.succsOf(r.producer) {
			if c := a.cluster[s]; c >= 0 && c != home {
				add(s)
			}
		}
	}
	add(p)
	for _, c := range consumers {
		add(c)
	}
	a.victimBuf = out
	return out
}

// pcr computes the paper's Predicted Copy Requests for cluster cl:
// the sum over operations already assigned there of
// min(UpperBound(N), UnassignedSuccessors(N)). Reference form; the
// engine maintains the same quantity as a per-cluster aggregate.
//
//schedvet:alloc-free
func (a *assigner) pcr(d *derived, cl int) int {
	total := 0
	for n := 0; n < a.g.NumNodes(); n++ {
		if a.cluster[n] != cl {
			continue
		}
		unassigned := 0
		for _, s := range a.g.Successors(n) {
			if a.cluster[s] < 0 {
				unassigned++
			}
		}
		if unassigned == 0 {
			continue
		}
		ub := a.upperBound(d.rc[n])
		if unassigned < ub {
			ub = unassigned
		}
		total += ub
	}
	return total
}

// pic is the incoming mirror of pcr: predicted copies arriving at
// cluster cl, one per distinct unassigned predecessor of each node
// already assigned there (worst case: the predecessor lands on another
// cluster and its value must be written into cl). The paper's Figure 10
// line 6 predicts only source-side (read-port) pressure; with single
// write ports the target side binds just as often, so the full
// heuristic checks both directions against their reservable room.
// Reference form; the engine keeps a refcounted distinct-predecessor
// count per cluster instead.
func (a *assigner) pic(cl int) int {
	producers := map[int]bool{}
	for n := 0; n < a.g.NumNodes(); n++ {
		if a.cluster[n] != cl {
			continue
		}
		for _, p := range a.g.Predecessors(n) {
			if a.cluster[p] < 0 {
				producers[p] = true
			}
		}
	}
	return len(producers)
}

// maxReservableIncoming is the headroom for copies arriving at cluster
// cl: write-port slot-cycles there, and — like MaxReservableCopies on
// the source side — the free slot-cycles of the shared fabric each
// arriving copy also consumes.
//
//schedvet:alloc-free
func (a *assigner) maxReservableIncoming(d *derived, cl int) int {
	return a.maxReservableIncomingCap(d.cap, cl)
}

//schedvet:alloc-free
func (a *assigner) maxReservableIncomingCap(cap *mrt.Capacity, cl int) int {
	return cap.MaxReservableIncoming(cl)
}

// upperBound is the paper's UpperBound(): the worst-case number of
// additional copies an operation could still require. On a broadcast
// machine a value is communicated at most once; otherwise at most once
// per other cluster.
//
//schedvet:alloc-free
func (a *assigner) upperBound(rc int) int {
	var ub int
	if a.m.Network == machine.Broadcast {
		ub = 1 - rc
	} else {
		ub = a.m.NumClusters() - rc - 1
	}
	if ub < 0 {
		ub = 0
	}
	return ub
}
