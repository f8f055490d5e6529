package schedvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"clustersched/internal/diag"
)

// nondet enforces the determinism contract on result paths. Two rules:
//
// VET002 — calls that read ambient nondeterministic state (wall clock,
// process environment, the globally-seeded math/rand source) are
// forbidden lexically inside determinism-critical packages AND inside
// any module function reachable from a critical package's exported
// API. Explicitly-seeded generators (rand.New(rand.NewSource(seed)))
// and *rand.Rand methods are fine: they are deterministic by
// construction. The traversal never enters packages on the NoFollow
// list (obs legitimately timestamps trace events) and never descends
// into the standard library (loaded declarations-only).
//
// VET003 — goroutine-ordering-sensitive constructs in critical
// packages: a select with two or more communication clauses resolves
// races by runtime choice, and a go statement introduces scheduling
// nondeterminism. Single-case selects with a default (the non-blocking
// pool idiom) are fine.
type funcFacts struct {
	fd        funcDecl
	forbidden []forbiddenSite
	callees   []*types.Func
}

type forbiddenSite struct {
	pos  token.Pos
	what string // e.g. "time.Now"
}

func (c *checker) nondet() {
	facts := make(map[*types.Func]*funcFacts)
	var order []*types.Func // deterministic iteration
	for _, pkg := range c.pkgs {
		for _, fd := range funcsOf(pkg) {
			if fd.obj == nil || fd.decl.Body == nil {
				continue
			}
			facts[fd.obj] = gatherFacts(fd)
			order = append(order, fd.obj)
		}
	}

	reported := make(map[token.Pos]bool)

	// Lexical rule: forbidden calls directly inside critical packages.
	for _, fn := range order {
		ff := facts[fn]
		if !critical(ff.fd.pkg.Path) {
			continue
		}
		for _, site := range ff.forbidden {
			if reported[site.pos] {
				continue
			}
			reported[site.pos] = true
			c.report("nondet", site.pos, diag.Diagnostic{
				Code:     "VET002",
				Severity: diag.Error,
				Message:  "call to " + site.what + " in a determinism-critical package",
				Subject:  funcDisplayName(ff.fd),
				Fix:      "thread the value in as a parameter or use an explicitly seeded source",
			})
		}
	}

	// Reachability rule: BFS from the exported API of the critical
	// packages through module-local calls.
	rootOf := make(map[*types.Func]string)
	var queue []*types.Func
	for _, fn := range order {
		ff := facts[fn]
		if critical(ff.fd.pkg.Path) && ff.fd.decl.Name.IsExported() {
			rootOf[fn] = funcDisplayName(ff.fd)
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		ff := facts[fn]
		if ff == nil || noFollow(ff.fd.pkg.Path) {
			continue
		}
		for _, site := range ff.forbidden {
			if reported[site.pos] {
				continue
			}
			reported[site.pos] = true
			c.report("nondet", site.pos, diag.Diagnostic{
				Code:     "VET002",
				Severity: diag.Error,
				Message:  "call to " + site.what + " on a result path reachable from " + rootOf[fn],
				Subject:  funcDisplayName(ff.fd),
				Fix:      "thread the value in as a parameter or use an explicitly seeded source",
			})
		}
		for _, callee := range ff.callees {
			if _, seen := rootOf[callee]; seen {
				continue
			}
			if facts[callee] == nil {
				continue
			}
			rootOf[callee] = rootOf[fn]
			queue = append(queue, callee)
		}
	}

	// Ordering-sensitivity rule, lexical in critical packages.
	for _, pkg := range c.pkgs {
		if !critical(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.SelectStmt:
					comm := 0
					for _, cl := range st.Body.List {
						if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
							comm++
						}
					}
					if comm >= 2 {
						c.report("nondet", st.Select, diag.Diagnostic{
							Code:     "VET003",
							Severity: diag.Error,
							Message:  "select with multiple communication clauses resolves races by runtime choice",
							Fix:      "restructure so the outcome is order-independent, or annotate //schedvet:allow nondet with a reason",
						})
					}
				case *ast.GoStmt:
					c.report("nondet", st.Go, diag.Diagnostic{
						Code:     "VET003",
						Severity: diag.Error,
						Message:  "go statement in a determinism-critical package introduces scheduling nondeterminism",
						Fix:      "move concurrency to the orchestration layer, or annotate //schedvet:allow nondet with a reason",
					})
				}
				return true
			})
		}
	}
}

// gatherFacts records a function's forbidden-call sites and its
// module-local callees, in source order.
func gatherFacts(fd funcDecl) *funcFacts {
	ff := &funcFacts{fd: fd}
	info := fd.pkg.Info
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil {
			return true
		}
		if what := forbiddenCall(callee); what != "" {
			ff.forbidden = append(ff.forbidden, forbiddenSite{pos: call.Pos(), what: what})
			return true
		}
		ff.callees = append(ff.callees, callee)
		return true
	})
	return ff
}

// forbiddenCall classifies a callee as an ambient-nondeterminism read,
// returning its display name, or "" when the call is fine.
func forbiddenCall(f *types.Func) string {
	pkg := f.Pkg()
	if pkg == nil {
		return ""
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "" // methods (time.Time, *rand.Rand, ...) are fine
	}
	name := f.Name()
	switch pkg.Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return "time." + name
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			return "os." + name
		}
	case "math/rand", "math/rand/v2":
		switch name {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return "" // explicit construction is deterministic
		}
		return "the global " + pkg.Name() + "." + name
	}
	return ""
}

// funcDisplayName renders "pkg.Func" or "pkg.(*Recv).Method" for
// diagnostics.
func funcDisplayName(fd funcDecl) string {
	seg := pathSegment(fd.pkg.Path)
	if fd.decl.Recv != nil && len(fd.decl.Recv.List) > 0 {
		recv := types.ExprString(fd.decl.Recv.List[0].Type)
		if strings.HasPrefix(recv, "*") {
			recv = "(" + recv + ")"
		}
		return seg + "." + recv + "." + fd.decl.Name.Name
	}
	return seg + "." + fd.decl.Name.Name
}
