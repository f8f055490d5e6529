package schedvet

import (
	"go/ast"
	"go/types"

	"clustersched/internal/diag"
)

// mapiter flags `for ... range m` over map-typed operands inside
// determinism-critical packages (VET001). Go randomizes map iteration
// order, so any such range whose body does more than collect keys or
// values for sorting can leak nondeterminism into schedules, cache
// keys, or diagnostics.
//
// The sanctioned sorted-keys idiom is recognized and not flagged: a
// range body whose every statement appends to slices (collect now,
// sort outside the loop), e.g.
//
//	keys := make([]int, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.Ints(keys)
func (c *checker) mapiter() {
	for _, pkg := range c.pkgs {
		if !critical(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pkg.Info.TypeOf(rng.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if isCollectOnlyBody(rng.Body) {
					return true
				}
				c.report("mapiter", rng.For, diag.Diagnostic{
					Code:     "VET001",
					Severity: diag.Error,
					Message:  "unordered range over a map in a determinism-critical package",
					Subject:  "range over " + types.ExprString(rng.X),
					Fix:      "collect the keys into a slice, sort it, and range over the slice",
				})
				return true
			})
		}
	}
}

// isCollectOnlyBody reports whether every statement of a range body is
// a plain append-assignment (the collect phase of the sorted-keys
// idiom). Sorting inside the body would still observe map order, so
// only appends qualify.
func isCollectOnlyBody(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	for _, st := range body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			return false
		}
	}
	return true
}
