package frontend

// The exported syntax view: a flattened, read-only projection of the
// parser's AST that the lint package (and other tools) can analyse
// without depending on parser internals. Expressions are flattened
// into the ordered list of name references they read; constants fold
// away here exactly as they do in compilation.

// Ref is one name reference in a loop body: a scalar or an array
// element access.
type Ref struct {
	Name   string
	Array  bool
	Offset int // subscript i+Offset, array references only
	Line   int
}

// Stmt is one statement "target = rhs" with the references the
// right-hand side reads, in evaluation order.
type Stmt struct {
	Line   int
	Target Ref
	Reads  []Ref
}

// LoopSyntax is the syntax view of one parsed loop.
type LoopSyntax struct {
	Name  string
	Line  int
	Stmts []Stmt
}

// ParseSyntax parses the source and returns the syntax view of every
// loop, without compiling to dependence graphs. Parse errors are the
// same the compiler reports.
func ParseSyntax(src string) ([]LoopSyntax, error) {
	p, err := parse(src)
	if err != nil {
		return nil, err
	}
	out := make([]LoopSyntax, len(p.loops))
	for li := range p.loops {
		l := &p.loops[li]
		out[li] = LoopSyntax{Name: p.src[l.name.start:l.name.end], Line: int(l.line)}
		for _, st := range p.stmts[l.stmts.lo:l.stmts.hi] {
			s := Stmt{Line: int(st.line), Target: Ref{Name: p.name(l, st.target), Line: int(st.line)}}
			if st.elem >= 0 {
				s.Target.Array, s.Target.Offset = true, p.elems[l.elems.lo+st.elem].offset
			}
			// The leaves of the right-hand side's run are its reads, in
			// source order.
			for _, e := range p.exprs[st.rhs.lo:st.rhs.hi] {
				switch e.kind {
				case exprScalar:
					s.Reads = append(s.Reads, Ref{Name: p.name(l, e.ref), Line: int(e.line)})
				case exprArray:
					el := p.elems[l.elems.lo+e.ref]
					s.Reads = append(s.Reads, Ref{Name: p.name(l, el.name), Array: true, Offset: el.offset, Line: int(e.line)})
				}
			}
			out[li].Stmts = append(out[li].Stmts, s)
		}
	}
	return out, nil
}
