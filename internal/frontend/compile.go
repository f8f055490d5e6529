package frontend

import (
	"fmt"

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
// Compile is Parse followed by Build of every loop in source order;
// callers that want the per-loop builds in parallel use those two
// directly.
func Compile(src string) ([]Loop, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	out := make([]Loop, prog.Len())
	for i := range out {
		if out[i], err = prog.Build(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Program is a parsed translation unit: one syntax tree per loop, in
// source order. It is read-only once Parse returns, so Build may run
// for different loops on different goroutines.
type Program struct {
	loops []loopAST
}

// Parse lexes and parses the whole source without building any
// dependence graph. It reports every lexical and syntax error Compile
// reports, and rejects a source with no loops.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	asts, err := parseProgram(toks)
	if err != nil {
		return nil, err
	}
	if len(asts) == 0 {
		return nil, fmt.Errorf("frontend: no loops in source")
	}
	return &Program{loops: asts}, nil
}

// Len is the number of loops in the program.
func (p *Program) Len() int { return len(p.loops) }

// Build compiles loop i of the program to its dependence graph. It
// only reads the program, so concurrent calls are safe.
func (p *Program) Build(i int) (Loop, error) {
	ast := &p.loops[i]
	g, err := compileLoop(ast)
	if err != nil {
		return Loop{}, err
	}
	return Loop{Name: ast.name, Graph: g, Line: ast.line}, nil
}

// access records one array access for memory-dependence analysis.
type access struct {
	node   int // load or store node
	store  bool
	offset int
	stmt   int // statement index, for same-iteration ordering
}

// element is one array element of an iteration: array[i+offset].
type element struct {
	array  string
	offset int
}

// carriedUse is a scalar read whose definition comes later in the
// body: it uses the previous iteration's value.
type carriedUse struct {
	consumer int
	name     string
}

type compiler struct {
	g            *ddg.Graph
	lastDef      map[string]int  // scalar -> defining node so far (-1: constant)
	definedIn    map[string]bool // scalar assigned anywhere in the body
	loads        map[element]int // load node of each element read this iteration
	stored       map[element]int // value node stored to each element this iteration
	arrayOf      map[string]int  // array -> index into arrays
	arrays       [][]access      // accesses per array, arrays in first-access order
	carriedNames []string        // names behind negative value markers
	carried      []carriedUse    // resolved loop-carried uses
	stmt         int
}

func compileLoop(ast *loopAST) (*ddg.Graph, error) {
	c := &compiler{
		g:         ddg.NewGraph(len(ast.body)*4, len(ast.body)*6),
		lastDef:   map[string]int{},
		definedIn: map[string]bool{},
		loads:     map[element]int{},
		stored:    map[element]int{},
		arrayOf:   map[string]int{},
	}
	for _, st := range ast.body {
		if !st.target.array {
			c.definedIn[st.target.name] = true
		}
	}
	for i, st := range ast.body {
		c.stmt = i
		value, err := c.emitExpr(st.rhs)
		if err != nil {
			return nil, err
		}
		if st.target.array {
			store := c.g.AddNode(ddg.OpStore, subscriptName(st.target.name, st.target.offset))
			c.attach(value, store)
			key := element{st.target.name, st.target.offset}
			c.stored[key] = value
			delete(c.loads, key) // a reload after the store sees the new value
			c.record(st.target.name, access{node: store, store: true, offset: st.target.offset, stmt: i})
		} else {
			c.lastDef[st.target.name] = value // -1 when constant: folds away
		}
	}
	// Loop-carried scalar uses: previous iteration's final definition.
	// Markers can chain through scalar aliases (t = s); resolve until a
	// real node or a constant appears.
	for _, u := range c.carried {
		def, ok := c.lastDef[u.name]
		for hops := 0; ok && def < -1 && hops <= len(c.carriedNames); hops++ {
			def, ok = c.lastDef[c.carriedNames[-2-def]]
		}
		if ok && def >= 0 {
			c.g.AddEdge(def, u.consumer, 1)
		}
	}
	c.memoryDependences()
	c.g.AddNode(ddg.OpBranch, "loop")
	if err := c.g.Validate(); err != nil {
		return nil, fmt.Errorf("frontend: loop %q compiles to an unschedulable graph (%v); "+
			"a value would have to flow backwards within one iteration", ast.name, err)
	}
	return c.g, nil
}

// emitExpr generates nodes for an expression and returns the node
// producing its value, or -1 when the value is compile-time constant
// or loop-invariant (no in-loop producer).
func (c *compiler) emitExpr(e *expr) (int, error) {
	switch e.kind {
	case exprNumber:
		return -1, nil
	case exprScalar:
		if def, ok := c.lastDef[e.name]; ok {
			return def, nil
		}
		if c.definedIn[e.name] {
			// Defined later in the body: previous iteration's value.
			// The consumer edge is attached by the caller through a
			// pass-through marker; represent the value by a deferred
			// carried use bound when the consumer node exists. Since
			// expressions consume values at operation nodes, we return
			// a special marker resolved in emitBinary/emitCall/store.
			return c.carriedMarker(e), nil
		}
		return -1, nil // loop invariant, lives in a register
	case exprArray:
		key := element{e.name, e.offset}
		if v, ok := c.stored[key]; ok {
			return v, nil // store-to-load forwarding
		}
		if ld, ok := c.loads[key]; ok {
			return ld, nil // common-subexpression load
		}
		ld := c.g.AddNode(ddg.OpLoad, subscriptName(e.name, e.offset))
		c.loads[key] = ld
		c.record(e.name, access{node: ld, offset: e.offset, stmt: c.stmt})
		return ld, nil
	case exprBinary:
		left, err := c.emitExpr(e.args[0])
		if err != nil {
			return 0, err
		}
		right, err := c.emitExpr(e.args[1])
		if err != nil {
			return 0, err
		}
		var kind ddg.OpKind
		switch e.op {
		case '+', '-':
			kind = ddg.OpFAdd
		case '*':
			kind = ddg.OpFMul
		case '/':
			kind = ddg.OpFDiv
		default:
			return 0, fmt.Errorf("frontend: line %d: unknown operator %q", e.line, string(e.op))
		}
		op := c.g.AddNode(kind, "")
		c.attach(left, op)
		c.attach(right, op)
		return op, nil
	case exprCall:
		kind := ddg.OpFSqrt
		if e.name == "select" {
			// IF-converted conditional move: an integer-unit operation
			// consuming the predicate and both arms.
			kind = ddg.OpALU
		}
		op := c.g.AddNode(kind, e.name)
		for _, a := range e.args {
			v, err := c.emitExpr(a)
			if err != nil {
				return 0, err
			}
			c.attach(v, op)
		}
		return op, nil
	default:
		return 0, fmt.Errorf("frontend: line %d: unknown expression", e.line)
	}
}

// Carried scalar reads are encoded as negative markers below -1: the
// marker indexes c.carriedNames, and every attach of the marker
// records one loop-carried use resolved after the whole body is
// compiled (the definition is the body's final one for that scalar).
func (c *compiler) carriedMarker(e *expr) int {
	c.carriedNames = append(c.carriedNames, e.name)
	return -2 - (len(c.carriedNames) - 1)
}

// attach wires a produced value (node ID, constant -1, or carried
// marker) into the consumer node.
func (c *compiler) attach(value, consumer int) {
	switch {
	case value >= 0:
		c.g.AddEdge(value, consumer, 0)
	case value == -1:
		// constant or invariant: no dependence
	default:
		c.carried = append(c.carried, carriedUse{consumer: consumer, name: c.carriedNames[-2-value]})
	}
}

// record appends an access to its array's list, opening the list on
// the array's first access.
func (c *compiler) record(array string, a access) {
	k, ok := c.arrayOf[array]
	if !ok {
		k = len(c.arrays)
		c.arrayOf[array] = k
		c.arrays = append(c.arrays, nil)
	}
	c.arrays[k] = append(c.arrays[k], a)
}

// memoryDependences adds RAW, WAR, and WAW edges between accesses to
// the same array. Access A at subscript i+oa and access B at i+ob
// touch the same element when B's iteration runs oa-ob iterations
// after A's; a dependence exists when that distance is positive, or
// zero with A preceding B in the body. Arrays are walked in
// first-access order, so the edge order — which cache keys hash — is
// the same on every compile.
func (c *compiler) memoryDependences() {
	for _, accs := range c.arrays {
		for ai, a := range accs {
			for bi, b := range accs {
				if ai == bi || (!a.store && !b.store) {
					continue
				}
				d := a.offset - b.offset
				if d < 0 || (d == 0 && a.stmt >= b.stmt) {
					continue
				}
				if d == 0 && a.store && !b.store {
					// Same-iteration store->load at equal offsets was
					// forwarded; the load node only exists if it read a
					// different element, excluded by d == 0.
					continue
				}
				c.g.AddEdge(a.node, b.node, d)
			}
		}
	}
}

func subscriptName(array string, offset int) string {
	switch {
	case offset > 0:
		return fmt.Sprintf("%s[i+%d]", array, offset)
	case offset < 0:
		return fmt.Sprintf("%s[i%d]", array, offset)
	default:
		return array + "[i]"
	}
}
