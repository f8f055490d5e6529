package frontend

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"clustersched/internal/ddg"
)

// Loop pairs a compiled loop with its source name and the line its
// `loop` keyword appears on, so multi-loop drivers (clusterc -O, the
// clusterd compile endpoint) can point diagnostics back at the source.
type Loop struct {
	Name  string
	Graph *ddg.Graph
	Line  int
}

// Compile parses and compiles every loop in the source, producing a
// dependence graph per loop: operation nodes for loads, stores and
// arithmetic; register dataflow edges; loop-carried scalar recurrences
// (distance 1 back to the body's final definition); and memory
// dependences (RAW, WAR, WAW) between accesses to the same array,
// with distances derived from the subscript offsets. A loop-closing
// branch is appended to each body. Same-iteration store-to-load pairs
// at equal subscripts are forwarded (load-store elimination, as the
// paper's input suite had applied), and repeated loads of the same
// element reuse one load.
//
// Compile parses every loop and then builds every graph, so a syntax
// error anywhere takes precedence over a build error; callers that
// want to build loops while the rest are parsed use a Stream.
func Compile(src string) ([]Loop, error) {
	s, err := NewStream(src)
	if err != nil {
		return nil, err
	}
	parsed := make([]Parsed, s.Len())
	for i := range parsed {
		if parsed[i], err = s.Next(); err != nil {
			return nil, err
		}
	}
	out := make([]Loop, len(parsed))
	for i := range parsed {
		if out[i], err = parsed[i].Build(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// program holds the syntax slabs of a translation unit: its loops,
// in source order, and the statements, expression nodes, names and
// elements they index.
type program struct {
	src   string
	loops []loopAST
	stmts []statement
	exprs []expr
	names []span    // every loop's name table, back to back
	elems []element // every loop's element table, back to back
}

// A Stream parses a translation unit one loop at a time, so a driver
// can build and schedule the first loops while the parser is still on
// later ones. A Stream is used from one goroutine; the Parsed loops it
// returns may be built on any.
type Stream struct {
	p       *parser
	n, done int
}

// NewStream lexes the whole source, which finds every lexical error
// and counts the loops, and returns a Stream positioned at the first
// loop. It rejects a source with no loops.
func NewStream(src string) (*Stream, error) {
	s, err := newStream(src)
	if err == nil && s.n == 0 {
		err = fmt.Errorf("frontend: no loops in source")
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Len is the number of loops in the source: Next succeeds at most Len
// times.
func (s *Stream) Len() int { return s.n }

// Next parses the next loop. After the last loop it also checks that
// nothing but newlines follows. A syntax error ends the stream.
func (s *Stream) Next() (Parsed, error) {
	if s.done == s.n {
		return Parsed{}, fmt.Errorf("frontend: Next after the last of %d loops", s.n)
	}
	if err := s.p.loop(); err != nil {
		s.done = s.n
		return Parsed{}, err
	}
	if s.done++; s.done == s.n {
		if err := s.p.end(); err != nil {
			return Parsed{}, err
		}
	}
	// Views capped at the loop's end: the parser's later appends
	// write past them, never into them.
	pr := s.p.prog
	return Parsed{
		prog: program{
			src:   pr.src,
			stmts: pr.stmts[:len(pr.stmts):len(pr.stmts)],
			exprs: pr.exprs[:len(pr.exprs):len(pr.exprs)],
			names: pr.names[:len(pr.names):len(pr.names)],
			elems: pr.elems[:len(pr.elems):len(pr.elems)],
		},
		loop: pr.loops[len(pr.loops)-1],
	}, nil
}

// Parsed is one parsed loop, ready to Build. It only reads views of
// the parser's slabs that end where the loop does, so it stays valid,
// and race-free, while the Stream goes on.
type Parsed struct {
	prog program
	loop loopAST
}

// Name is the loop's name and Line the line of its loop keyword.
func (l *Parsed) Name() string { return l.prog.src[l.loop.name.start:l.loop.name.end] }
func (l *Parsed) Line() int    { return int(l.loop.line) }

// name is the text of a loop-local name ID of loop l.
func (p *program) name(l *loopAST, id int32) string {
	s := p.names[l.names.lo+id]
	return p.src[s.start:s.end]
}

// Build compiles the loop to its dependence graph. It only reads the
// loop, so concurrent calls are safe.
func (l *Parsed) Build() (Loop, error) {
	g, err := l.prog.compileLoop(&l.loop)
	if err != nil {
		return Loop{}, err
	}
	if err := g.Validate(); err != nil {
		return Loop{}, fmt.Errorf("frontend: loop %q compiles to an unschedulable graph (%v); "+
			"a value would have to flow backwards within one iteration", l.Name(), err)
	}
	return Loop{Name: l.Name(), Graph: g, Line: l.Line()}, nil
}

// absent marks an empty slot of the ID-indexed build tables; every
// value a slot can hold (a node, -1 for a constant, a carried marker
// below -1) lies above it.
const absent = math.MinInt32

// access records one array access for memory-dependence analysis.
type access struct {
	node  int32 // load or store node
	elem  int32
	stmt  int32 // statement index, for same-iteration ordering
	array int32 // the array's index in first-access order
	store bool
}

// compiler is the state of one Build. Its tables are runs of one int32
// slab indexed by the loop's dense name and element IDs.
type compiler struct {
	p *program
	l *loopAST
	g *ddg.Graph

	lastDef      []int32 // name -> defining node so far (-1: constant), or absent
	defined      []int32 // name -> 1 when the body assigns the scalar
	arrayOf      []int32 // name -> array index in first-access order, or -1
	loads        []int32 // element -> its load node this iteration, or absent
	stored       []int32 // element -> value stored to it this iteration, or absent
	nameEnd      []int32 // element e's node name is nodeNames[nameEnd[e]:nameEnd[e+1]]
	carriedNames []int32 // names behind negative value markers
	carried      []int32 // loop-carried uses, as (consumer, name) pairs
	groupEnd     []int32 // per array, the end of its run of grouped accesses
	accs         []access
	arrays       int32
	nodeNames    string
	stmt         int32
}

// compileLoop builds loop l's dependence graph, failing when its
// memory-dependence analysis would exceed maxMemoryPairs.
func (p *program) compileLoop(l *loopAST) (*ddg.Graph, error) {
	names, elems := int(l.names.len()), int(l.elems.len())
	slab := make([]int32, 5*names+1+3*elems+1+int(l.scalars)+2*int(l.operands))
	cut := func(n int) []int32 {
		s := slab[:n:n]
		slab = slab[n:]
		return s
	}
	c := &compiler{
		p:        p,
		l:        l,
		g:        ddg.NewGraph(int(l.loads+l.stores+l.ops+1), int(l.operands)),
		lastDef:  cut(names),
		defined:  cut(names),
		arrayOf:  cut(names),
		groupEnd: cut(2*names + 1),
		loads:    cut(elems),
		stored:   cut(elems),
		nameEnd:  cut(elems + 1),
	}
	c.carriedNames = cut(int(l.scalars))[:0]
	c.carried = cut(2 * int(l.operands))[:0]
	c.accs = make([]access, 0, 2*int(l.loads+l.stores))
	for k := range c.lastDef {
		c.lastDef[k], c.arrayOf[k] = absent, -1
	}
	for k := range c.loads {
		c.loads[k], c.stored[k] = absent, absent
	}
	c.nameElements()

	stmts := p.stmts[l.stmts.lo:l.stmts.hi]
	for _, st := range stmts {
		if st.elem < 0 {
			c.defined[st.target] = 1
		}
	}
	for i, st := range stmts {
		c.stmt = int32(i)
		value := c.emitExpr(st.rhs)
		if st.elem >= 0 {
			store := c.addNode(ddg.OpStore, st.elem)
			c.attach(value, store)
			c.stored[st.elem] = value
			c.loads[st.elem] = absent // a reload after the store sees the new value
			c.record(st.elem, store, true)
		} else {
			c.lastDef[st.target] = value // -1 when constant: folds away
		}
	}
	// Loop-carried scalar uses: previous iteration's final definition.
	// Markers can chain through scalar aliases (t = s); resolve until a
	// real node or a constant appears.
	for k := 0; k < len(c.carried); k += 2 {
		consumer, def := c.carried[k], c.lastDef[c.carried[k+1]]
		for hops := 0; def != absent && def < -1 && hops <= len(c.carriedNames); hops++ {
			def = c.lastDef[c.carriedNames[-2-def]]
		}
		if def >= 0 {
			c.g.AddEdge(int(def), int(consumer), 1)
		}
	}
	if pairs := c.memoryDependences(c.groupAccesses()); pairs > maxMemoryPairs {
		return nil, fmt.Errorf("frontend: line %d: loop %q has %d store-access pairs within its arrays, "+
			"more than the %d memory-dependence analysis admits",
			l.line, p.src[l.name.start:l.name.end], pairs, maxMemoryPairs)
	}
	c.g.AddNode(ddg.OpBranch, "loop")
	return c.g, nil
}

// nameElements renders the node name of every element of the loop
// into one string.
func (c *compiler) nameElements() {
	var digits [24]byte
	elems := c.p.elems[c.l.elems.lo:c.l.elems.hi]
	size := 0
	for _, e := range elems {
		size += len(c.p.name(c.l, e.name)) + len(appendSubscript(digits[:0], e.offset))
	}
	var b strings.Builder
	b.Grow(size)
	for k, e := range elems {
		b.WriteString(c.p.name(c.l, e.name))
		b.Write(appendSubscript(digits[:0], e.offset))
		c.nameEnd[k+1] = int32(b.Len())
	}
	c.nodeNames = b.String()
}

// appendSubscript appends the subscript of element name[i+offset]:
// "[i]", "[i+k]" or "[i-k]".
func appendSubscript(dst []byte, offset int) []byte {
	switch {
	case offset > 0:
		dst = append(dst, "[i+"...)
	case offset < 0:
		dst = append(dst, "[i"...)
	default:
		return append(dst, "[i]"...)
	}
	return append(strconv.AppendInt(dst, int64(offset), 10), ']')
}

// addNode adds a load or store of element e.
func (c *compiler) addNode(kind ddg.OpKind, e int32) int32 {
	return int32(c.g.AddNode(kind, c.nodeNames[c.nameEnd[e]:c.nameEnd[e+1]]))
}

// callFrame is a call whose argument values are still being emitted.
type callFrame struct {
	expr, node int32
	next       int // index of the argument whose root comes next
}

// emitExpr generates the nodes of a right-hand side and returns the
// node producing its value, or -1 when the value is compile-time
// constant or loop-invariant (no in-loop producer). It walks the run
// of expression nodes in order with a value stack, so no expression
// shape deepens the goroutine stack.
func (c *compiler) emitExpr(rhs run) int32 {
	var valBuf [32]int32
	var frameBuf [8]callFrame
	vals, frames := valBuf[:0], frameBuf[:0]
	exprs := c.p.exprs
walk:
	for k := rhs.lo; k < rhs.hi; k++ {
		e := &exprs[k]
		var v int32
		switch e.kind {
		case exprNumber:
			v = -1
		case exprScalar:
			v = c.scalar(e.ref)
		case exprArray:
			v = c.load(e.ref)
		case exprBinary:
			kind := ddg.OpFAdd
			switch e.op {
			case '*':
				kind = ddg.OpFMul
			case '/':
				kind = ddg.OpFDiv
			}
			n := len(vals)
			left, right := vals[n-2], vals[n-1]
			vals = vals[:n-2]
			v = int32(c.g.AddNode(kind, ""))
			c.attach(left, v)
			c.attach(right, v)
		case exprCall:
			kind := ddg.OpFSqrt
			if e.op == callSelect {
				// IF-converted conditional move: an integer-unit
				// operation consuming the predicate and both arms.
				kind = ddg.OpALU
			}
			node := int32(c.g.AddNode(kind, builtinNames[e.op]))
			frames = append(frames, callFrame{expr: k, node: node})
			continue
		}
		// A finished argument feeds its call; a call whose last
		// argument it was is finished in turn.
		for at := k; len(frames) > 0; {
			f := &frames[len(frames)-1]
			call := &exprs[f.expr]
			if call.args[f.next] != at {
				break
			}
			c.attach(v, f.node)
			if f.next++; f.next < builtinArity[call.op] {
				continue walk
			}
			at, v = f.expr, f.node
			frames = frames[:len(frames)-1]
		}
		vals = append(vals, v)
	}
	return vals[0]
}

// scalar is the value of a scalar read.
func (c *compiler) scalar(name int32) int32 {
	if def := c.lastDef[name]; def != absent {
		return def
	}
	if c.defined[name] != 0 {
		// Defined later in the body: the previous iteration's value,
		// represented by a marker that every attach records as a
		// loop-carried use, bound once the whole body is compiled.
		c.carriedNames = append(c.carriedNames, name)
		return -2 - int32(len(c.carriedNames)-1)
	}
	return -1 // loop invariant, lives in a register
}

// load is the value of an array read.
func (c *compiler) load(e int32) int32 {
	if v := c.stored[e]; v != absent {
		return v // store-to-load forwarding
	}
	if ld := c.loads[e]; ld != absent {
		return ld // common-subexpression load
	}
	ld := c.addNode(ddg.OpLoad, e)
	c.loads[e] = ld
	c.record(e, ld, false)
	return ld
}

// attach wires a produced value (node ID, constant -1, or carried
// marker) into the consumer node.
func (c *compiler) attach(value, consumer int32) {
	switch {
	case value >= 0:
		c.g.AddEdge(int(value), int(consumer), 0)
	case value == -1:
		// constant or invariant: no dependence
	default:
		c.carried = append(c.carried, consumer, c.carriedNames[-2-value])
	}
}

// record appends an access, numbering its array on the array's first
// access.
func (c *compiler) record(e, node int32, store bool) {
	name := c.p.elems[c.l.elems.lo+e].name
	if c.arrayOf[name] < 0 {
		c.arrayOf[name] = c.arrays
		c.arrays++
	}
	c.accs = append(c.accs, access{node: node, elem: e, stmt: c.stmt, array: c.arrayOf[name], store: store})
}

// groupAccesses counting-sorts the accesses by array, arrays in
// first-access order and each array's accesses in record order, into
// the back half of the access slab, and returns that half.
func (c *compiler) groupAccesses() []access {
	n := len(c.accs)
	grouped := c.accs[n : 2*n : 2*n]
	end := c.groupEnd[:c.arrays+1]
	for _, a := range c.accs {
		end[a.array+1]++
	}
	for k := int32(1); k <= c.arrays; k++ {
		end[k] += end[k-1]
	}
	fill := c.groupEnd[c.arrays+1 : 2*c.arrays+1]
	copy(fill, end)
	for _, a := range c.accs {
		grouped[fill[a.array]] = a
		fill[a.array]++
	}
	return grouped
}

// maxMemoryPairs bounds a loop's memory-dependence analysis: the sum,
// over its arrays, of the array's stores times its accesses, which is
// the number of access pairs memoryDependences tests and bounds the
// edges it adds. The largest loop of the Livermore kernels, the
// compile corpus, FuzzCompile's seeds and every test source not built
// to exceed it pairs 12; a body of 4000 stores to one array pairs 16
// million and would add 8 million edges.
const maxMemoryPairs = 1 << 16

// memoryDependences adds the RAW, WAR and WAW edges between accesses
// to the same array. Access A at subscript
// i+oa and access B at i+ob touch the same element when B's iteration
// runs oa-ob iterations after A's; a dependence exists when that
// distance is positive, or zero with A preceding B in the body.
// Arrays are walked in first-access order, so the edge order — which
// cache keys hash — is the same on every compile.
//
// It returns the loop's pair count and adds no edge when that exceeds
// maxMemoryPairs. Only pairs with a store can depend, so a load is
// tested against its array's stores alone and an array without stores
// is skipped: the walk costs at most twice the pair count, not
// accesses squared.
func (c *compiler) memoryDependences(grouped []access) int {
	ends := c.groupEnd[1 : c.arrays+1]
	pairs, lo := 0, int32(0)
	for _, hi := range ends {
		stores := 0
		for _, a := range grouped[lo:hi] {
			if a.store {
				stores++
			}
		}
		pairs += stores * int(hi-lo)
		lo = hi
	}
	if pairs > maxMemoryPairs {
		return pairs
	}
	elems := c.p.elems[c.l.elems.lo:c.l.elems.hi]
	lo = 0
	for _, hi := range ends {
		accs := grouped[lo:hi]
		lo = hi
		// The front half of the access slab is free once grouped.
		stores := c.accs[:0:len(c.accs)]
		for _, a := range accs {
			if a.store {
				stores = append(stores, a)
			}
		}
		if len(stores) == 0 {
			continue
		}
		for ai := range accs {
			a := &accs[ai]
			partners := stores
			if a.store {
				partners = accs
			}
			for bi := range partners {
				b := &partners[bi]
				if a.node == b.node {
					continue
				}
				d := elems[a.elem].offset - elems[b.elem].offset
				if d < 0 || (d == 0 && a.stmt >= b.stmt) {
					continue
				}
				if d == 0 && a.store && !b.store {
					// Same-iteration store->load at equal offsets was
					// forwarded; the load node only exists if it read a
					// different element, excluded by d == 0.
					continue
				}
				c.g.AddEdge(int(a.node), int(b.node), d)
			}
		}
	}
	return pairs
}
