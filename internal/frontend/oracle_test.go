package frontend

// The frontend the slab-based lexer, parser and compiler replaced: a
// token per lexeme carrying its text, one heap node per expression
// with an args slice, string-keyed maps for definitions, loads, stores
// and arrays, and fmt-built subscript names. oracleCompile and
// oracleParseSyntax are the reference the differential tests and
// FuzzFrontendOracle hold Compile and ParseSyntax to.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"clustersched/internal/ddg"
)

// oracleCompile is the replaced Compile: lex, parse, reject a source
// with no loops, then compile every loop in source order.
func oracleCompile(src string) ([]Loop, error) {
	toks, err := oracleLex(src)
	if err != nil {
		return nil, err
	}
	asts, err := oracleParseProgram(toks)
	if err != nil {
		return nil, err
	}
	if len(asts) == 0 {
		return nil, fmt.Errorf("frontend: no loops in source")
	}
	out := make([]Loop, len(asts))
	for i := range asts {
		g, err := oracleCompileLoop(&asts[i])
		if err != nil {
			return nil, err
		}
		out[i] = Loop{Name: asts[i].name, Graph: g, Line: asts[i].line}
	}
	return out, nil
}

type oracleToken struct {
	kind tokenKind
	text string
	line int
}

// oracleLex tokenizes the whole source. '#' comments run to end of line;
// newlines and ';' are statement separators.
//
// The token slab is presized from the source length: generated loops
// average ~1.6 source bytes per token and hand-written ones ~2.3, so
// two tokens per three bytes holds a typical unit without regrowth.
func oracleLex(src string) ([]oracleToken, error) {
	toks := make([]oracleToken, 0, len(src)*2/3+1)
	line := 1
	i := 0
	emit := func(k tokenKind, text string) {
		toks = append(toks, oracleToken{kind: k, text: text, line: line})
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			emit(tokNewline, "\\n")
			line++
			i++
		case c == ';':
			emit(tokNewline, ";")
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == ',':
			emit(tokComma, ",")
			i++
		case c == '=':
			emit(tokAssign, "=")
			i++
		case c == '+':
			emit(tokPlus, "+")
			i++
		case c == '-':
			emit(tokMinus, "-")
			i++
		case c == '*':
			emit(tokStar, "*")
			i++
		case c == '/':
			emit(tokSlash, "/")
			i++
		case c == '(':
			emit(tokLParen, "(")
			i++
		case c == ')':
			emit(tokRParen, ")")
			i++
		case c == '[':
			emit(tokLBrack, "[")
			i++
		case c == ']':
			emit(tokRBrack, "]")
			i++
		case c == '{':
			emit(tokLBrace, "{")
			i++
		case c == '}':
			emit(tokRBrace, "}")
			i++
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.') {
				j++
			}
			emit(tokNumber, src[i:j])
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			word := src[i:j]
			if word == "loop" {
				emit(tokLoop, word)
			} else {
				emit(tokIdent, word)
			}
			i = j
		default:
			return nil, fmt.Errorf("frontend: line %d: unexpected character %q", line, string(c))
		}
	}
	emit(tokEOF, "")
	return toks, nil
}

// oracleStripTrailing returns s without a trailing newline marker, for error
// messages.
func oracleStripTrailing(s string) string { return strings.TrimSuffix(s, "\\n") }

// AST --------------------------------------------------------------------

// oracleExpr is an expression tree node.
type oracleExpr struct {
	kind exprKind
	line int

	value  float64       // exprNumber
	name   string        // exprScalar, exprArray, exprCall
	offset int           // exprArray: subscript i+offset
	op     byte          // exprBinary: one of + - * /
	args   []*oracleExpr // exprBinary (2), exprCall (1)
}

// oracleLvalue is an assignment target.
type oracleLvalue struct {
	name   string
	array  bool
	offset int
	line   int
}

// oracleStatement is "target = expr".
type oracleStatement struct {
	target oracleLvalue
	rhs    *oracleExpr
	line   int
}

// oracleLoop is a parsed loop.
type oracleLoop struct {
	name string
	body []oracleStatement
	line int
}

// oracleBuiltinArity lists the intrinsic functions: sqrt maps to the FSQRT
// unit; select(c, a, b) is the conditional move IF-conversion produces
// (an integer-ALU operation consuming all three values).
var oracleBuiltinArity = map[string]int{
	"sqrt":   1,
	"select": 3,
}

// Parser -----------------------------------------------------------------

type oracleParser struct {
	toks []oracleToken
	pos  int
}

func (p *oracleParser) peek() oracleToken   { return p.toks[p.pos] }
func (p *oracleParser) next() oracleToken   { t := p.toks[p.pos]; p.pos++; return t }
func (p *oracleParser) at(k tokenKind) bool { return p.toks[p.pos].kind == k }

func (p *oracleParser) expect(k tokenKind) (oracleToken, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("frontend: line %d: expected %v, found %v %q",
			t.line, k, t.kind, oracleStripTrailing(t.text))
	}
	return t, nil
}

func (p *oracleParser) skipNewlines() {
	for p.at(tokNewline) {
		p.next()
	}
}

// oracleParseProgram parses "loop name { body }"*.
func oracleParseProgram(toks []oracleToken) ([]oracleLoop, error) {
	p := &oracleParser{toks: toks}
	var loops []oracleLoop
	for {
		p.skipNewlines()
		if p.at(tokEOF) {
			return loops, nil
		}
		lt, err := p.expect(tokLoop)
		if err != nil {
			return nil, err
		}
		nameTok, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		p.skipNewlines()
		if _, err := p.expect(tokLBrace); err != nil {
			return nil, err
		}
		l := oracleLoop{name: nameTok.text, line: lt.line}
		for {
			p.skipNewlines()
			if p.at(tokRBrace) {
				p.next()
				break
			}
			st, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			l.body = append(l.body, st)
		}
		if len(l.body) == 0 {
			return nil, fmt.Errorf("frontend: line %d: loop %q has an empty body", lt.line, l.name)
		}
		loops = append(loops, l)
	}
}

// parseStatement parses "target = expr".
func (p *oracleParser) parseStatement() (oracleStatement, error) {
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return oracleStatement{}, err
	}
	lv := oracleLvalue{name: nameTok.text, line: nameTok.line}
	if p.at(tokLBrack) {
		off, err := p.parseSubscript()
		if err != nil {
			return oracleStatement{}, err
		}
		lv.array = true
		lv.offset = off
	}
	if _, err := p.expect(tokAssign); err != nil {
		return oracleStatement{}, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return oracleStatement{}, err
	}
	if !p.at(tokEOF) && !p.at(tokRBrace) {
		if _, err := p.expect(tokNewline); err != nil {
			return oracleStatement{}, err
		}
	}
	return oracleStatement{target: lv, rhs: rhs, line: nameTok.line}, nil
}

// parseSubscript parses "[i]", "[i+k]", or "[i-k]".
func (p *oracleParser) parseSubscript() (int, error) {
	if _, err := p.expect(tokLBrack); err != nil {
		return 0, err
	}
	idx, err := p.expect(tokIdent)
	if err != nil {
		return 0, err
	}
	if idx.text != "i" {
		return 0, fmt.Errorf("frontend: line %d: subscripts must use the loop index 'i', found %q", idx.line, idx.text)
	}
	offset := 0
	switch p.peek().kind {
	case tokPlus, tokMinus:
		sign := 1
		if p.next().kind == tokMinus {
			sign = -1
		}
		num, err := p.expect(tokNumber)
		if err != nil {
			return 0, err
		}
		k, err := strconv.Atoi(num.text)
		if err != nil {
			return 0, fmt.Errorf("frontend: line %d: subscript offset %q must be an integer", num.line, num.text)
		}
		offset = sign * k
	}
	if _, err := p.expect(tokRBrack); err != nil {
		return 0, err
	}
	return offset, nil
}

// parseExpr parses additive expressions.
func (p *oracleParser) parseExpr() (*oracleExpr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.at(tokPlus) || p.at(tokMinus) {
		opTok := p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = &oracleExpr{kind: exprBinary, op: opTok.text[0], args: []*oracleExpr{left, right}, line: opTok.line}
	}
	return left, nil
}

// parseTerm parses multiplicative expressions.
func (p *oracleParser) parseTerm() (*oracleExpr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.at(tokStar) || p.at(tokSlash) {
		opTok := p.next()
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = &oracleExpr{kind: exprBinary, op: opTok.text[0], args: []*oracleExpr{left, right}, line: opTok.line}
	}
	return left, nil
}

// parseFactor parses numbers, scalars, array reads, calls, negation,
// and parenthesized expressions.
func (p *oracleParser) parseFactor() (*oracleExpr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("frontend: line %d: bad number %q", t.line, t.text)
		}
		return &oracleExpr{kind: exprNumber, value: v, line: t.line}, nil
	case tokMinus:
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		// Negation folds into a subtract from zero.
		zero := &oracleExpr{kind: exprNumber, value: 0, line: t.line}
		return &oracleExpr{kind: exprBinary, op: '-', args: []*oracleExpr{zero, inner}, line: t.line}, nil
	case tokLParen:
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	case tokIdent:
		switch {
		case p.at(tokLBrack):
			off, err := p.parseSubscript()
			if err != nil {
				return nil, err
			}
			return &oracleExpr{kind: exprArray, name: t.text, offset: off, line: t.line}, nil
		case p.at(tokLParen):
			arity, known := oracleBuiltinArity[t.text]
			if !known {
				return nil, fmt.Errorf("frontend: line %d: unknown function %q (want sqrt or select)", t.line, t.text)
			}
			p.next() // (
			var args []*oracleExpr
			for i := 0; i < arity; i++ {
				if i > 0 {
					if _, err := p.expect(tokComma); err != nil {
						return nil, err
					}
				}
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, arg)
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &oracleExpr{kind: exprCall, name: t.text, args: args, line: t.line}, nil
		default:
			return &oracleExpr{kind: exprScalar, name: t.text, line: t.line}, nil
		}
	default:
		return nil, fmt.Errorf("frontend: line %d: expected an expression, found %v %q",
			t.line, t.kind, oracleStripTrailing(t.text))
	}
}

// oracleAccess records one array access for memory-dependence analysis.
type oracleAccess struct {
	node   int // load or store node
	store  bool
	offset int
	stmt   int // statement index, for same-iteration ordering
}

// oracleElement is one array element of an iteration: array[i+offset].
type oracleElement struct {
	array  string
	offset int
}

// oracleCarriedUse is a scalar read whose definition comes later in the
// body: it uses the previous iteration's value.
type oracleCarriedUse struct {
	consumer int
	name     string
}

type oracleCompiler struct {
	g            *ddg.Graph
	lastDef      map[string]int        // scalar -> defining node so far (-1: constant)
	definedIn    map[string]bool       // scalar assigned anywhere in the body
	loads        map[oracleElement]int // load node of each element read this iteration
	stored       map[oracleElement]int // value node stored to each element this iteration
	arrayOf      map[string]int        // array -> index into arrays
	arrays       [][]oracleAccess      // accesses per array, arrays in first-access order
	carriedNames []string              // names behind negative value markers
	carried      []oracleCarriedUse    // resolved loop-carried uses
	stmt         int
}

func oracleCompileLoop(ast *oracleLoop) (*ddg.Graph, error) {
	c := &oracleCompiler{
		g:         ddg.NewGraph(len(ast.body)*4, len(ast.body)*6),
		lastDef:   map[string]int{},
		definedIn: map[string]bool{},
		loads:     map[oracleElement]int{},
		stored:    map[oracleElement]int{},
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
			store := c.g.AddNode(ddg.OpStore, oracleSubscriptName(st.target.name, st.target.offset))
			c.attach(value, store)
			key := oracleElement{st.target.name, st.target.offset}
			c.stored[key] = value
			delete(c.loads, key) // a reload after the store sees the new value
			c.record(st.target.name, oracleAccess{node: store, store: true, offset: st.target.offset, stmt: i})
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
func (c *oracleCompiler) emitExpr(e *oracleExpr) (int, error) {
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
		key := oracleElement{e.name, e.offset}
		if v, ok := c.stored[key]; ok {
			return v, nil // store-to-load forwarding
		}
		if ld, ok := c.loads[key]; ok {
			return ld, nil // common-subexpression load
		}
		ld := c.g.AddNode(ddg.OpLoad, oracleSubscriptName(e.name, e.offset))
		c.loads[key] = ld
		c.record(e.name, oracleAccess{node: ld, offset: e.offset, stmt: c.stmt})
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
func (c *oracleCompiler) carriedMarker(e *oracleExpr) int {
	c.carriedNames = append(c.carriedNames, e.name)
	return -2 - (len(c.carriedNames) - 1)
}

// attach wires a produced value (node ID, constant -1, or carried
// marker) into the consumer node.
func (c *oracleCompiler) attach(value, consumer int) {
	switch {
	case value >= 0:
		c.g.AddEdge(value, consumer, 0)
	case value == -1:
		// constant or invariant: no dependence
	default:
		c.carried = append(c.carried, oracleCarriedUse{consumer: consumer, name: c.carriedNames[-2-value]})
	}
}

// record appends an access to its array's list, opening the list on
// the array's first access.
func (c *oracleCompiler) record(array string, a oracleAccess) {
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
func (c *oracleCompiler) memoryDependences() {
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

func oracleSubscriptName(array string, offset int) string {
	switch {
	case offset > 0:
		return fmt.Sprintf("%s[i+%d]", array, offset)
	case offset < 0:
		return fmt.Sprintf("%s[i%d]", array, offset)
	default:
		return array + "[i]"
	}
}

// oracleParseSyntax parses the source and returns the syntax view of every
// loop, without compiling to dependence graphs. Parse errors are the
// same the compiler reports.
func oracleParseSyntax(src string) ([]LoopSyntax, error) {
	toks, err := oracleLex(src)
	if err != nil {
		return nil, err
	}
	asts, err := oracleParseProgram(toks)
	if err != nil {
		return nil, err
	}
	out := make([]LoopSyntax, 0, len(asts))
	for _, ast := range asts {
		l := LoopSyntax{Name: ast.name, Line: ast.line}
		for _, st := range ast.body {
			s := Stmt{
				Line: st.line,
				Target: Ref{
					Name:   st.target.name,
					Array:  st.target.array,
					Offset: st.target.offset,
					Line:   st.target.line,
				},
			}
			oracleCollectReads(st.rhs, &s.Reads)
			l.Stmts = append(l.Stmts, s)
		}
		out = append(out, l)
	}
	return out, nil
}

// oracleCollectReads appends every scalar and array reference of e in
// evaluation order.
func oracleCollectReads(e *oracleExpr, out *[]Ref) {
	if e == nil {
		return
	}
	switch e.kind {
	case exprScalar:
		*out = append(*out, Ref{Name: e.name, Line: e.line})
	case exprArray:
		*out = append(*out, Ref{Name: e.name, Array: true, Offset: e.offset, Line: e.line})
	}
	for _, a := range e.args {
		oracleCollectReads(a, out)
	}
}
