package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// scratchpinPass enforces the scratch-arena lifetime contract: slices
// backed by a core.Scratch (its arena fields, or the view-returning
// methods Identity/resultViews) are valid only until the scratch is
// reset or regrown, so they must never be stored into a struct field or
// returned to a caller. The sanctioned escape is a copy: the engine
// copies results into the summary cache's arenas before caching, and
// append into a fresh slice is treated as that copy. The handful of
// deliberate view returns (the views themselves, and the driver sites
// that consume them before the next query) carry //lint:allow.
type scratchpinPass struct{}

func (scratchpinPass) Name() string { return "scratchpin" }
func (scratchpinPass) Doc() string {
	return "no scratch-arena-backed slice stored into a struct field or returned"
}

func (scratchpinPass) AppliesTo(pkgName, pkgPath string) bool { return pkgName == "core" }

func (scratchpinPass) Run(u *Unit) []Diagnostic {
	var out []Diagnostic
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			out = append(out, (&scratchTaint{u: u, taint: map[string]bool{}}).run(fn)...)
		}
	}
	return out
}

// scratchTaint is the per-function taint state: expression keys known to
// alias scratch storage.
type scratchTaint struct {
	u     *Unit
	taint map[string]bool
	out   []Diagnostic
}

func (s *scratchTaint) run(fn *ast.FuncDecl) []Diagnostic {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			s.assign(n.Lhs, n.Rhs, n.Pos())
		case *ast.ValueSpec:
			if len(n.Values) > 0 {
				lhs := make([]ast.Expr, len(n.Names))
				for i, id := range n.Names {
					lhs[i] = id
				}
				s.assign(lhs, n.Values, n.Pos())
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if s.tainted(res) {
					s.out = append(s.out, Diagnostic{
						Pos:  s.u.Fset.Position(res.Pos()),
						Pass: "scratchpin",
						Message: "returning a scratch-backed slice — it is invalidated by the next query on this Scratch; " +
							"copy into a fresh allocation (append to nil) before returning",
					})
				}
			}
		}
		return true
	})
	return s.out
}

// assign propagates taint across one assignment and reports struct-field
// stores of tainted values.
func (s *scratchTaint) assign(lhs, rhs []ast.Expr, pos token.Pos) {
	// Multi-value form x, y := call(): the whole tuple is tainted or not.
	if len(lhs) > 1 && len(rhs) == 1 {
		t := s.tainted(rhs[0])
		for _, l := range lhs {
			s.sinkOrMark(l, t)
		}
		return
	}
	for i := range lhs {
		if i >= len(rhs) {
			break
		}
		s.sinkOrMark(lhs[i], s.tainted(rhs[i]))
	}
}

func (s *scratchTaint) sinkOrMark(l ast.Expr, taintedRHS bool) {
	if sel, ok := l.(*ast.SelectorExpr); ok {
		// A scratch writing its own fields is its business; any other
		// struct field pins the arena beyond the query lifetime.
		if base := s.u.Info.TypeOf(sel.X); base != nil && !isNamed(base, corePath, "Scratch") {
			if taintedRHS {
				s.out = append(s.out, Diagnostic{
					Pos:  s.u.Fset.Position(l.Pos()),
					Pass: "scratchpin",
					Message: fmt.Sprintf("storing a scratch-backed slice into field %s — the arena is reused by the next query; "+
						"copy into a fresh allocation first", sel.Sel.Name),
				})
			}
			return
		}
	}
	if key := exprString(s.u, l); key != "" {
		if taintedRHS {
			s.taint[key] = true
		} else {
			delete(s.taint, key) // overwritten with a clean value
		}
	}
}

// tainted reports whether e evaluates to scratch-backed storage.
func (s *scratchTaint) tainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return s.taint[exprString(s.u, e)]
	case *ast.ParenExpr:
		return s.tainted(e.X)
	case *ast.SelectorExpr:
		if base := s.u.Info.TypeOf(e.X); base != nil && isNamed(base, corePath, "Scratch") {
			if t := s.u.Info.TypeOf(e); t != nil {
				// Array fields count too: slicing one aliases the
				// scratch just like a slice field does.
				if _, isArr := t.Underlying().(*types.Array); isArr || hasSlice(t) {
					return true
				}
			}
		}
		return s.taint[exprString(s.u, e)]
	case *ast.SliceExpr:
		return s.tainted(e.X)
	case *ast.IndexExpr:
		return s.tainted(e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && s.tainted(e.X)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			// append copies its variadic tail; the result aliases only the
			// destination, so taint follows the first argument alone.
			return s.tainted(e.Args[0])
		}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if recv := s.u.Info.TypeOf(sel.X); recv != nil && isNamed(recv, corePath, "Scratch") {
				if t := s.u.Info.TypeOf(e); t != nil && hasSlice(t) {
					return true
				}
			}
		}
		return false
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if s.tainted(el) {
				return true
			}
		}
		return false
	}
	return false
}
