package schedvet

import (
	"go/ast"
	"strings"
)

// The annotation grammar (documented in docs/ANALYSIS.md):
//
//	//schedvet:alloc-free
//	    On a function's doc comment: the function body must be free of
//	    heap allocation (the allocfree pass enforces it).
//
//	//schedvet:alloc-free callees
//	    As above, and additionally every function the body directly
//	    calls must not contain make or new (one level; VET015). For
//	    reset paths whose zero-allocation contract spans helpers.
//
//	//schedvet:allow <pass> [reason]
//	    On or immediately above a flagged line: suppress findings of
//	    the named pass (mapiter, nondet, allocfree, lockdiscipline,
//	    testapi) at that line. A reason is strongly encouraged.
//
//	//schedvet:test-api <reason>
//	    On the doc comment of an exported function or method, or on
//	    the doc or line comment of an option field: a deliberate keeper
//	    that only tests reach (a reference oracle, a validator). The
//	    reason is required; without one the annotation exempts nothing.

const (
	allocFreeMarker        = "//schedvet:alloc-free"
	allocFreeCalleesMarker = "//schedvet:alloc-free callees"
	allowMarker            = "//schedvet:allow"
	testAPIMarker          = "//schedvet:test-api"
)

// isAllocFree reports whether the function declaration carries the
// //schedvet:alloc-free annotation (either variant) in its doc
// comment.
func isAllocFree(decl *ast.FuncDecl) bool {
	return hasMarker(decl, allocFreeMarker) || hasMarker(decl, allocFreeCalleesMarker)
}

// isAllocFreeCallees reports whether the declaration carries the
// callees variant, extending the alloc-free contract one call level
// down.
func isAllocFreeCallees(decl *ast.FuncDecl) bool {
	return hasMarker(decl, allocFreeCalleesMarker)
}

func hasMarker(decl *ast.FuncDecl, marker string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// allowSet records, per file and line, which passes are suppressed by
// //schedvet:allow comments. A comment suppresses its own line and the
// line immediately following it, so both trailing and preceding-line
// placement work.
type allowSet map[string]map[int]map[string]bool

// collectAllows scans every comment of the packages' files for allow
// annotations.
func collectAllows(m *Module, pkgs []*Package) allowSet {
	set := make(allowSet)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pass, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					file, line := m.position(c.Pos())
					set.add(file, line, pass)
					set.add(file, line+1, pass)
				}
			}
		}
	}
	return set
}

func parseAllow(text string) (pass string, ok bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), allowMarker)
	if !ok {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", false
	}
	return fields[0], true
}

func (s allowSet) add(file string, line int, pass string) {
	byLine := s[file]
	if byLine == nil {
		byLine = make(map[int]map[string]bool)
		s[file] = byLine
	}
	passes := byLine[line]
	if passes == nil {
		passes = make(map[string]bool)
		byLine[line] = passes
	}
	passes[pass] = true
}

// allowed reports whether findings of the named pass are suppressed at
// the given position.
func (s allowSet) allowed(pass string, file string, line int) bool {
	return s[file][line][pass]
}
