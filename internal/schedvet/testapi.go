package schedvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"clustersched/internal/diag"
)

// testapi keeps test-only API from growing under internal/ (VET030):
// the exported surface of an internal package exists for the module's
// own programs, so what only tests reach is dead weight. Fixture
// packages under testdata are out of scope; the package's tests put
// one under the rule through testapiOn.
func (c *checker) testapi() {
	var targets []*Package
	for _, pkg := range c.pkgs {
		rel := strings.TrimPrefix(pkg.Path, c.mod.Path+"/")
		if strings.HasPrefix(rel, "internal/") && !strings.Contains(rel, "/testdata/") {
			targets = append(targets, pkg)
		}
	}
	if len(targets) > 0 {
		c.testapiOn(targets)
	}
}

// testapiOn reports an exported function or method of the targets that
// no non-test file references, not counting references from its own
// body, and an exported field of a …Options or …Config struct that no
// non-test file writes (a composite-literal key or position, an
// assignment, an element assignment, an increment or an address-of)
// outside the methods of the struct itself, so a defaults method does
// not count as a setter. A method implementing an
// interface method counts as reached: calls through the interface are
// invisible to a static scan. References are collected over every
// package of the module tree, the nested bench module included, so
// analyzing one directory gives the same verdict as analyzing the
// module; when some package fails to load, the scan reports that
// instead of judging reachability on part of the module. A declaration
// marked //schedvet:test-api with a reason is not reported.
func (c *checker) testapiOn(targets []*Package) {
	if _, err := c.mod.LoadAll(); err != nil {
		c.rep.Report(diag.Diagnostic{
			Code:     "VET030",
			Severity: diag.Error,
			Message:  "module failed to load; test-only API not checked: " + err.Error(),
			Fix:      "fix the load error; references from unloaded packages are unknown",
		})
		return
	}
	refs := c.mod.references()
	var ifaces []*types.Interface
	for _, pkg := range targets {
		for _, fd := range funcsOf(pkg) {
			f := fd.obj
			if f == nil || !f.Exported() || refs.used[f] || hasTestAPIMarker(fd.decl.Doc) {
				continue
			}
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				if ifaces == nil {
					ifaces = c.mod.interfaces()
				}
				if implementsMethod(recv.Type(), f.Name(), ifaces) {
					continue
				}
			}
			c.report("testapi", fd.decl.Name.Pos(), diag.Diagnostic{
				Code:     "VET030",
				Severity: diag.Error,
				Message:  "exported function is referenced only from tests",
				Subject:  funcDisplayName(fd),
				Fix:      "delete it, move it into a _test.go file, or mark a deliberate keeper //schedvet:test-api <reason>",
			})
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !strings.HasSuffix(ts.Name.Name, "Options") && !strings.HasSuffix(ts.Name.Name, "Config") {
					return false
				}
				for _, field := range st.Fields.List {
					if hasTestAPIMarker(field.Doc) || hasTestAPIMarker(field.Comment) {
						continue
					}
					for _, name := range field.Names {
						if v, _ := pkg.Info.Defs[name].(*types.Var); v == nil || !v.Exported() || refs.written[v] {
							continue
						}
						c.report("testapi", name.Pos(), diag.Diagnostic{
							Code:     "VET030",
							Severity: diag.Error,
							Message:  "exported option field is never set by non-test code",
							Subject:  pathSegment(pkg.Path) + "." + ts.Name.Name + "." + name.Name,
							Fix:      "delete the field and use the value it always takes, or mark a deliberate keeper //schedvet:test-api <reason>",
						})
					}
				}
				return false
			})
		}
	}
}

// hasTestAPIMarker reports whether a comment group carries a
// //schedvet:test-api annotation with a reason.
func hasTestAPIMarker(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if rest, ok := strings.CutPrefix(c.Text, testAPIMarker+" "); ok && strings.TrimSpace(rest) != "" {
			return true
		}
	}
	return false
}

// refSet is what the module's non-test code reaches: the functions and
// methods it names, and the struct fields it writes.
type refSet struct {
	used    map[*types.Func]bool
	written map[*types.Var]bool
}

// references scans every loaded package of the module.
func (m *Module) references() refSet {
	r := refSet{used: make(map[*types.Func]bool), written: make(map[*types.Var]bool)}
	for _, pkg := range m.pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					self, _ = pkg.Info.Defs[fd.Name].(*types.Func)
				}
				r.scan(pkg.Info, d, self)
			}
		}
	}
	return r
}

// scan records the references of one declaration; self is the
// function it declares, whose recursive calls do not count, and whose
// writes to the fields of its own receiver's struct do not count
// either.
func (r refSet) scan(info *types.Info, decl ast.Node, self *types.Func) {
	var own map[*types.Var]bool // the fields of self's receiver struct
	if self != nil && self.Type().(*types.Signature).Recv() != nil {
		t := self.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			own = make(map[*types.Var]bool, st.NumFields())
			for i := 0; i < st.NumFields(); i++ {
				own[st.Field(i).Origin()] = true
			}
		}
	}
	write := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !own[v.Origin()] {
			r.written[v.Origin()] = true
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if f, ok := info.Uses[n].(*types.Func); ok && f.Origin() != self {
				r.used[f.Origin()] = true
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				break
			}
			st, ok := t.Underlying().(*types.Struct)
			for i, elt := range n.Elts {
				if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
					if id, isID := kv.Key.(*ast.Ident); isID {
						write(info.Uses[id])
					}
				} else if ok && i < st.NumFields() {
					write(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(writtenField(info, lhs))
			}
		case *ast.IncDecStmt:
			write(writtenField(info, n.X))
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(writtenField(info, n.X))
			}
		}
		return true
	})
}

// writtenField returns the field a write to e sets: the selected field
// of x.f, also when the write goes to one of its elements (x.f[k]), or
// nil when e selects no field.
func writtenField(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	for ix, ok := e.(*ast.IndexExpr); ok; ix, ok = e.(*ast.IndexExpr) {
		e = ast.Unparen(ix.X)
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
	}
	return nil
}

// interfaces lists error and every named interface type with methods
// declared in the module or in the packages it imports.
func (m *Module) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	add := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
	}
	for _, p := range m.pkgs {
		if p.Types != nil {
			add(p.Types)
		}
	}
	for _, p := range m.imports {
		add(p)
	}
	return out
}

// implementsMethod reports whether the receiver type implements some
// interface that declares a method of the given name.
func implementsMethod(recv types.Type, name string, ifaces []*types.Interface) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return false // Implements is unspecified for generic types
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(recv, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}
