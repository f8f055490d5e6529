package frontend

import (
	"fmt"
	"strconv"
)

// Syntax slabs -----------------------------------------------------------
//
// A parsed program is a handful of pointer-free slabs addressed by
// int32 indices: loops, statements, expression nodes, and each loop's
// name and element tables. Names are byte ranges of the source.

// exprKind enumerates expression node kinds.
type exprKind uint8

const (
	exprNumber exprKind = iota
	exprScalar
	exprArray
	exprBinary
	exprCall
)

// The intrinsic functions, an exprCall's op: sqrt maps to the FSQRT
// unit; select(c, a, b) is the conditional move IF-conversion produces
// (an integer-ALU operation consuming all three values).
const (
	callSqrt = iota
	callSelect
)

var (
	builtinNames = [...]string{callSqrt: "sqrt", callSelect: "select"}
	builtinArity = [...]int{callSqrt: 1, callSelect: 3}
)

// expr is one expression node of its program's slab. A statement's
// right-hand side is one contiguous run of the slab, laid out in the
// order the compiler creates the nodes: an operator after the operands
// it consumes, a call before its arguments. Scalar and array reads,
// the leaves, come in source order.
type expr struct {
	kind exprKind
	op   byte  // exprBinary: one of + - * /; exprCall: callSqrt or callSelect
	line int32 // of the leaf, the operator, or the function name
	ref  int32 // exprScalar: loop-local name ID; exprArray: loop-local element ID
	args [3]int32
}

// span is a byte range of the source.
type span struct{ start, end int32 }

// run is an index range [lo, hi) of one of a program's slabs.
type run struct{ lo, hi int32 }

func (r run) len() int32 { return r.hi - r.lo }

// element is one array element of an iteration: name[i+offset], name
// being a loop-local name ID.
type element struct {
	name   int32
	offset int
}

// statement is "target = rhs".
type statement struct {
	line   int32
	target int32 // loop-local name ID
	elem   int32 // loop-local element ID of an array target; -1 for a scalar
	rhs    run   // the right-hand side's expression nodes
}

// loopAST is a parsed loop. Its names and elements carry dense IDs
// local to the loop, assigned in order of first appearance, which
// index the slices of a build.
type loopAST struct {
	name                span
	line                int32
	stmts, names, elems run
	// Counts over the body that size a build: array and scalar reads,
	// array stores, operators and calls, and the values operators,
	// calls and stores consume.
	loads, scalars, stores, ops, operands int32
}

// Parser -----------------------------------------------------------------

// maxNesting bounds how deeply expressions nest through parentheses,
// unary minus and call arguments. The parser recurses once per level,
// so an unbounded source of nested parentheses could exhaust the
// goroutine stack; loop bodies nest a handful of levels.
const maxNesting = 1000

type parser struct {
	prog  *program
	toks  []token
	pos   int
	depth int // active parseFactor calls

	// cur is the loop being parsed and stamp its number from 1.
	cur   loopAST
	stamp int32

	// Program-wide intern tables. A name or element's global ID indexes
	// its local slot, which holds its loop-local ID once the loop
	// stamped there has used it.
	nameIDs   map[string]int32
	elemIDs   map[elemKey]int32
	nameLocal []localID
	elemLocal []localID
}

// elemKey identifies an element program-wide: global name ID and
// subscript offset.
type elemKey struct {
	name   int32
	offset int
}

type localID struct{ stamp, id int32 }

// newStream lexes the whole source and readies a parser over it. A
// source with no loops is checked whole here: it is empty, or Next
// would never see its stray tokens.
func newStream(src string) (*Stream, error) {
	toks, n, err := lex(src)
	if err != nil {
		return nil, err
	}
	// Every slab is sized by a token count that bounds it: a node per
	// operand or operator token (two for a unary minus), at most a
	// name per identifier and an element per subscript. Appends never
	// outgrow them, so a loop's views keep pointing into the slabs the
	// parser goes on filling.
	p := &parser{
		prog: &program{
			src:   src,
			loops: make([]loopAST, 0, n[tokLoop]),
			stmts: make([]statement, 0, n[tokAssign]),
			exprs: make([]expr, 0, n[tokIdent]+n[tokNumber]+n[tokPlus]+2*n[tokMinus]+n[tokStar]+n[tokSlash]),
			names: make([]span, 0, n[tokIdent]),
			elems: make([]element, 0, n[tokLBrack]),
		},
		toks:    toks,
		nameIDs: make(map[string]int32, min(n[tokIdent], 64)),
		elemIDs: make(map[elemKey]int32, min(n[tokLBrack], 64)),
	}
	s := &Stream{p: p, n: n[tokLoop]}
	if s.n == 0 {
		if err := p.end(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// parse lexes and parses the whole source into a program.
func parse(src string) (*program, error) {
	s, err := newStream(src)
	if err != nil {
		return nil, err
	}
	for range s.n {
		if _, err := s.Next(); err != nil {
			return nil, err
		}
	}
	return s.p.prog, nil
}

func (p *parser) text(t token) string { return p.prog.src[t.start:t.end] }
func (p *parser) peek() token         { return p.toks[p.pos] }
func (p *parser) next() token         { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k tokenKind) bool { return p.toks[p.pos].kind == k }

// add appends an expression node and returns its index.
func (p *parser) add(e expr) int32 {
	p.prog.exprs = append(p.prog.exprs, e)
	return int32(len(p.prog.exprs) - 1)
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("frontend: line %d: expected %v, found %v %q",
			t.line, k, t.kind, p.text(t))
	}
	return t, nil
}

func (p *parser) skipNewlines() {
	for p.at(tokNewline) {
		p.next()
	}
}

// name interns an identifier: its global ID, and its loop-local ID,
// assigned on its first use in the loop being parsed.
func (p *parser) name(t token) (global, local int32) {
	s := p.text(t)
	global, ok := p.nameIDs[s]
	if !ok {
		global = int32(len(p.nameLocal))
		p.nameIDs[s] = global
		p.nameLocal = append(p.nameLocal, localID{})
	}
	if l := &p.nameLocal[global]; l.stamp != p.stamp {
		*l = localID{p.stamp, int32(len(p.prog.names)) - p.cur.names.lo}
		p.prog.names = append(p.prog.names, span{t.start, t.end})
	}
	return global, p.nameLocal[global].id
}

// element interns name[i+offset] for the loop being parsed and returns
// its loop-local ID.
func (p *parser) element(global, local int32, offset int) int32 {
	key := elemKey{global, offset}
	g, ok := p.elemIDs[key]
	if !ok {
		g = int32(len(p.elemLocal))
		p.elemIDs[key] = g
		p.elemLocal = append(p.elemLocal, localID{})
	}
	if l := &p.elemLocal[g]; l.stamp != p.stamp {
		*l = localID{p.stamp, int32(len(p.prog.elems)) - p.cur.elems.lo}
		p.prog.elems = append(p.prog.elems, element{name: local, offset: offset})
	}
	return p.elemLocal[g].id
}

// loop parses the next "loop name { body }". The source holds
// another loop keyword, so it is not at its end.
func (p *parser) loop() error {
	pr := p.prog
	p.skipNewlines()
	lt, err := p.expect(tokLoop)
	if err != nil {
		return err
	}
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	p.skipNewlines()
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	p.stamp++
	p.cur = loopAST{
		name:  span{nameTok.start, nameTok.end},
		line:  lt.line,
		stmts: run{lo: int32(len(pr.stmts))},
		names: run{lo: int32(len(pr.names))},
		elems: run{lo: int32(len(pr.elems))},
	}
	for {
		p.skipNewlines()
		if p.at(tokRBrace) {
			p.next()
			break
		}
		if err := p.statement(); err != nil {
			return err
		}
	}
	p.cur.stmts.hi = int32(len(pr.stmts))
	p.cur.names.hi = int32(len(pr.names))
	p.cur.elems.hi = int32(len(pr.elems))
	if p.cur.stmts.len() == 0 {
		return fmt.Errorf("frontend: line %d: loop %q has an empty body", lt.line, p.text(nameTok))
	}
	pr.loops = append(pr.loops, p.cur)
	return nil
}

// end checks that only newlines follow the last loop: anything else
// is where another loop keyword was due.
func (p *parser) end() error {
	p.skipNewlines()
	if p.at(tokEOF) {
		return nil
	}
	_, err := p.expect(tokLoop)
	return err
}

// statement parses "target = expr".
func (p *parser) statement() error {
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	global, target := p.name(nameTok)
	st := statement{line: nameTok.line, target: target, elem: -1}
	if p.at(tokLBrack) {
		off, err := p.subscript()
		if err != nil {
			return err
		}
		st.elem = p.element(global, target, off)
		p.cur.stores++
		p.cur.operands++
	}
	if _, err := p.expect(tokAssign); err != nil {
		return err
	}
	st.rhs.lo = int32(len(p.prog.exprs))
	if _, err := p.parseExpr(); err != nil {
		return err
	}
	st.rhs.hi = int32(len(p.prog.exprs))
	if !p.at(tokEOF) && !p.at(tokRBrace) {
		if _, err := p.expect(tokNewline); err != nil {
			return err
		}
	}
	p.prog.stmts = append(p.prog.stmts, st)
	return nil
}

// subscript parses "[i]", "[i+k]", or "[i-k]".
func (p *parser) subscript() (int, error) {
	if _, err := p.expect(tokLBrack); err != nil {
		return 0, err
	}
	idx, err := p.expect(tokIdent)
	if err != nil {
		return 0, err
	}
	if p.text(idx) != "i" {
		return 0, fmt.Errorf("frontend: line %d: subscripts must use the loop index 'i', found %q", idx.line, p.text(idx))
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
		k, err := strconv.Atoi(p.text(num))
		if err != nil {
			return 0, fmt.Errorf("frontend: line %d: subscript offset %q must be an integer", num.line, p.text(num))
		}
		offset = sign * k
	}
	if _, err := p.expect(tokRBrack); err != nil {
		return 0, err
	}
	return offset, nil
}

// binary appends an operator node over two operand nodes.
func (p *parser) binary(op byte, line, left, right int32) int32 {
	p.cur.ops++
	p.cur.operands += 2
	return p.add(expr{kind: exprBinary, op: op, line: line, args: [3]int32{left, right}})
}

// parseExpr parses additive expressions and returns the root node.
func (p *parser) parseExpr() (int32, error) {
	left, err := p.parseTerm()
	if err != nil {
		return 0, err
	}
	for p.at(tokPlus) || p.at(tokMinus) {
		opTok := p.next()
		right, err := p.parseTerm()
		if err != nil {
			return 0, err
		}
		left = p.binary(p.prog.src[opTok.start], opTok.line, left, right)
	}
	return left, nil
}

// parseTerm parses multiplicative expressions.
func (p *parser) parseTerm() (int32, error) {
	left, err := p.parseFactor()
	if err != nil {
		return 0, err
	}
	for p.at(tokStar) || p.at(tokSlash) {
		opTok := p.next()
		right, err := p.parseFactor()
		if err != nil {
			return 0, err
		}
		left = p.binary(p.prog.src[opTok.start], opTok.line, left, right)
	}
	return left, nil
}

// parseFactor parses numbers, scalars, array reads, calls, negation,
// and parenthesized expressions. Every level of nesting passes through
// it, so it is where the depth is bounded.
func (p *parser) parseFactor() (int32, error) {
	if p.depth == maxNesting {
		return 0, fmt.Errorf("frontend: line %d: expression nested more than %d levels deep", p.peek().line, maxNesting)
	}
	p.depth++
	e, err := p.factor()
	p.depth--
	return e, err
}

func (p *parser) factor() (int32, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if _, err := strconv.ParseFloat(p.text(t), 64); err != nil {
			return 0, fmt.Errorf("frontend: line %d: bad number %q", t.line, p.text(t))
		}
		return p.add(expr{kind: exprNumber, line: t.line}), nil
	case tokMinus:
		// Negation folds into a subtract from zero.
		zero := p.add(expr{kind: exprNumber, line: t.line})
		inner, err := p.parseFactor()
		if err != nil {
			return 0, err
		}
		return p.binary('-', t.line, zero, inner), nil
	case tokLParen:
		inner, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return 0, err
		}
		return inner, nil
	case tokIdent:
		switch {
		case p.at(tokLBrack):
			global, local := p.name(t)
			off, err := p.subscript()
			if err != nil {
				return 0, err
			}
			p.cur.loads++
			return p.add(expr{kind: exprArray, line: t.line, ref: p.element(global, local, off)}), nil
		case p.at(tokLParen):
			fn := callSqrt
			switch p.text(t) {
			case "sqrt":
			case "select":
				fn = callSelect
			default:
				return 0, fmt.Errorf("frontend: line %d: unknown function %q (want sqrt or select)", t.line, p.text(t))
			}
			p.next() // (
			arity := builtinArity[fn]
			call := p.add(expr{kind: exprCall, op: byte(fn), line: t.line})
			p.cur.ops++
			p.cur.operands += int32(arity)
			for i := 0; i < arity; i++ {
				if i > 0 {
					if _, err := p.expect(tokComma); err != nil {
						return 0, err
					}
				}
				arg, err := p.parseExpr()
				if err != nil {
					return 0, err
				}
				p.prog.exprs[call].args[i] = arg
			}
			if _, err := p.expect(tokRParen); err != nil {
				return 0, err
			}
			return call, nil
		default:
			_, local := p.name(t)
			p.cur.scalars++
			return p.add(expr{kind: exprScalar, line: t.line, ref: local}), nil
		}
	default:
		return 0, fmt.Errorf("frontend: line %d: expected an expression, found %v %q",
			t.line, t.kind, p.text(t))
	}
}
