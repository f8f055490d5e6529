package schedvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"clustersched/internal/diag"
)

// lockdiscipline enforces the shard/LRU mutex rules of internal/cache
// and internal/server: a sync.Mutex or sync.RWMutex must never be held
// across a channel operation (VET020) — sends, receives, selects, and
// ranges over channels can block indefinitely while every other
// goroutine contends on the lock — or across handler I/O (VET021).
//
// The analysis is a per-function, statement-ordered dataflow over the
// set of held locks, keyed by the receiver expression (s.mu). Branches
// that terminate (return, break, continue, panic, or a select whose
// every case terminates) restore the pre-branch state; branches that
// merge intersect their held sets, so only locks provably held on
// every path are tracked — the false-positive-avoiding direction.
// defer mu.Unlock() keeps the lock held to the end of the function,
// which is exactly the window the rules constrain.
func (c *checker) lockdiscipline() {
	for _, pkg := range c.pkgs {
		if !locked(pkg.Path) {
			continue
		}
		for _, fd := range funcsOf(pkg) {
			if fd.decl.Body == nil {
				continue
			}
			la := &lockAnalysis{c: c, fd: fd, info: fd.pkg.Info}
			la.block(fd.decl.Body.List, map[string]bool{})
		}
	}
}

type lockAnalysis struct {
	c    *checker
	fd   funcDecl
	info *types.Info
}

// lockCall classifies a call as Lock (+1), Unlock (-1), or neither (0)
// on a sync mutex, returning the receiver expression as the lock key.
func (la *lockAnalysis) lockCall(call *ast.CallExpr) (key string, op int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	callee := calleeOf(la.info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return "", 0
	}
	switch callee.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), 1
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), -1
	}
	return "", 0
}

func (la *lockAnalysis) flag(pos token.Pos, code, msg string, held map[string]bool) {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	la.c.report("lockdiscipline", pos, diag.Diagnostic{
		Code:     code,
		Severity: diag.Error,
		Message:  msg + " while " + strings.Join(keys, ", ") + " is held",
		Subject:  funcDisplayName(la.fd),
		Fix:      "release the lock before blocking, or snapshot under the lock and operate on the copy",
	})
}

// ioCall reports whether the callee performs handler I/O.
func ioCall(callee *types.Func) bool {
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	switch callee.Pkg().Path() {
	case "io", "bufio", "net", "net/http", "encoding/json":
		return true
	case "fmt":
		return strings.HasPrefix(callee.Name(), "Fprint")
	}
	return false
}

// scan inspects the expressions of one non-structural statement for
// violations under the current held set.
func (la *lockAnalysis) scan(n ast.Node, held map[string]bool) {
	if n == nil || len(held) == 0 {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				la.flag(e.Pos(), "VET020", "channel receive", held)
			}
		case *ast.CallExpr:
			if callee := calleeOf(la.info, e); ioCall(callee) {
				la.flag(e.Pos(), "VET021", "I/O call to "+callee.Pkg().Name()+"."+callee.Name(), held)
			}
		case *ast.FuncLit:
			return false // runs later; lock state unknown there
		}
		return true
	})
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

func intersect(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// block runs the dataflow over a statement list, returning the held
// set at its end.
func (la *lockAnalysis) block(stmts []ast.Stmt, held map[string]bool) map[string]bool {
	for _, st := range stmts {
		held = la.stmt(st, held)
	}
	return held
}

func (la *lockAnalysis) stmt(st ast.Stmt, held map[string]bool) map[string]bool {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, op := la.lockCall(call); op != 0 {
				if op > 0 {
					held = copyHeld(held)
					held[key] = true
				} else {
					held = copyHeld(held)
					delete(held, key)
				}
				return held
			}
		}
		la.scan(s.X, held)
	case *ast.DeferStmt:
		if _, op := la.lockCall(s.Call); op != 0 {
			return held // deferred unlock: held to function end by design
		}
		// Other deferred work runs at return; skip.
	case *ast.SendStmt:
		if len(held) > 0 {
			la.flag(s.Pos(), "VET020", "channel send", held)
		}
		la.scan(s.Chan, held)
		la.scan(s.Value, held)
	case *ast.SelectStmt:
		if len(held) > 0 {
			la.flag(s.Pos(), "VET020", "select", held)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				la.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			held = la.stmt(s.Init, held)
		}
		la.scan(s.Cond, held)
		bodyOut := la.block(s.Body.List, copyHeld(held))
		bodyTerm := blockTerminates(s.Body.List)
		if s.Else == nil {
			if bodyTerm {
				return held
			}
			return intersect(bodyOut, held)
		}
		elseOut := la.stmt(s.Else, copyHeld(held))
		elseTerm := stmtTerminates(s.Else)
		switch {
		case bodyTerm && elseTerm:
			return held // successors unreachable; keep entry state
		case bodyTerm:
			return elseOut
		case elseTerm:
			return bodyOut
		default:
			return intersect(bodyOut, elseOut)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = la.stmt(s.Init, held)
		}
		la.scan(s.Cond, held)
		la.block(s.Body.List, copyHeld(held))
		la.scan(s.Post, held)
	case *ast.RangeStmt:
		if t := la.info.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan && len(held) > 0 {
				la.flag(s.Pos(), "VET020", "range over channel", held)
			}
		}
		la.scan(s.X, held)
		la.block(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = la.stmt(s.Init, held)
		}
		la.scan(s.Tag, held)
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				la.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = la.stmt(s.Init, held)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				la.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.BlockStmt:
		return la.block(s.List, copyHeld(held))
	case *ast.LabeledStmt:
		return la.stmt(s.Stmt, held)
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the held set.
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			la.scan(r, held)
		}
	default:
		la.scan(st, held)
	}
	return held
}

// stmtTerminates reports whether control cannot flow past the
// statement (a conservative subset of the spec's terminating
// statements).
func stmtTerminates(st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	case *ast.BlockStmt:
		return blockTerminates(s.List)
	case *ast.IfStmt:
		return s.Else != nil && blockTerminates(s.Body.List) && stmtTerminates(s.Else)
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok || !blockTerminates(cc.Body) {
				return false
			}
		}
		return len(s.Body.List) > 0
	}
	return false
}

func blockTerminates(stmts []ast.Stmt) bool {
	return len(stmts) > 0 && stmtTerminates(stmts[len(stmts)-1])
}
