// Package schedvet is the project's static-analysis complement to the
// runtime differential oracles: it loads and type-checks the whole
// module with a stdlib-only source importer and enforces the
// determinism and zero-allocation contracts at compile time.
//
// Five passes run over the loaded packages:
//
//	mapiter         unordered range over a map in a determinism-critical
//	                package (VET001) unless the sorted-keys idiom is used
//	nondet          wall-clock / global-rand / environment reads lexically
//	                in, or reachable from the exported API of, a critical
//	                package (VET002), and goroutine-ordering-sensitive
//	                constructs — multi-way selects, go statements — in
//	                critical packages (VET003)
//	allocfree       functions annotated //schedvet:alloc-free must not
//	                allocate (VET010-VET014); the callees variant also
//	                rejects make/new in direct callees (VET015)
//	lockdiscipline  mutexes in internal/cache and internal/server must
//	                not be held across channel operations (VET020) or
//	                handler I/O (VET021)
//	testapi         exported functions, methods and option fields of
//	                internal packages must be reached from non-test
//	                code (VET030)
//
// Findings flow through internal/diag, so schedvet and clusterlint
// present one diagnostic surface. docs/ANALYSIS.md describes the passes
// and the annotation grammar; docs/DIAGNOSTICS.md catalogues the codes.
package schedvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"clustersched/internal/diag"
)

// The project policy, by the final segment of a package's import path
// (so fixtures under testdata/src/<name> are treated as the real
// package of that name). criticalPkgs are determinism-critical:
// mapiter and the lexical nondet checks apply inside them, and their
// exported functions are the nondet roots. This covers the scheduling
// pipeline, its key-construction packages, the fleet's deterministic
// state machines (membership and cachering take time as parameters),
// the streaming compile executor (byte-identical output across worker
// counts) and the frontend (cache keys hash the graphs it builds).
// lockedPkgs hold no mutex across channel operations or I/O; balance is
// only here, since it owns the timers, goroutines and selects of
// hedging and heartbeats. The nondet traversal does not enter
// noFollowPkgs: obs reads wall-clock time for trace timestamps.
var (
	criticalPkgs = []string{"clustersched", "assign", "sched", "mrt", "mii", "order", "ddg", "pipeline", "cache", "membership", "cachering", "compile", "frontend"}
	lockedPkgs   = []string{"cache", "server", "balance", "membership", "cachering", "compile", "frontend"}
	noFollowPkgs = []string{"obs"}
)

// pathSegment returns the final segment of an import path.
func pathSegment(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func critical(path string) bool { return contains(criticalPkgs, pathSegment(path)) }
func locked(path string) bool   { return contains(lockedPkgs, pathSegment(path)) }
func noFollow(path string) bool { return contains(noFollowPkgs, pathSegment(path)) }

// checker carries the shared state of one analysis run.
type checker struct {
	mod    *Module
	pkgs   []*Package
	allows allowSet
	rep    diag.Reporter
}

// Check runs every pass over the given packages of the module and
// returns the findings sorted into the canonical diagnostic order.
func Check(m *Module, pkgs []*Package) []diag.Diagnostic {
	c := &checker{mod: m, pkgs: pkgs, allows: collectAllows(m, pkgs)}
	c.mapiter()
	c.nondet()
	c.allocfree()
	c.lockdiscipline()
	c.testapi()
	diags := c.rep.Diagnostics()
	diag.Sort(diags)
	return diags
}

// report files one finding unless an //schedvet:allow comment for the
// pass covers its line.
func (c *checker) report(pass string, pos token.Pos, d diag.Diagnostic) {
	file, line := c.mod.position(pos)
	if c.allows.allowed(pass, file, line) {
		return
	}
	d.File, d.Line = file, line
	c.rep.Report(d)
}

// calleeOf resolves the static callee of a call expression, when it is
// a declared function or method (not a func-valued variable or a type
// conversion).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// funcsOf yields every function and method declaration of the package
// together with its types object, in source order.
func funcsOf(pkg *Package) []funcDecl {
	var out []funcDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
			out = append(out, funcDecl{pkg: pkg, decl: fn, obj: obj})
		}
	}
	return out
}

type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
	obj  *types.Func
}
