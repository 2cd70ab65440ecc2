package manasim

import (
	"go/ast"
	"go/types"
	"testing"
)

// upperHalf are the packages above the split-process boundary. The
// paper's claim is that MANA's upper half holds no
// implementation-specific code, so that it runs over any MPI library.
var upperHalf = []string{"core", "vid", "vidlegacy", "ckpt", "ckpt/drain", "ckptimg", "ckptstore", "splitproc"}

// lowerHalf are the simulated MPI libraries: the shared engine and the
// four implementations (and impls, which registers them).
var lowerHalf = []string{"mpibase", "mpich", "craympi", "openmpi", "exampi", "impls"}

// TestUpperHalfIsImplementationOblivious holds the static half of that
// claim: no upper-half package imports a lower-half one, directly or
// through another package, and none asks which implementation it runs
// over — its only uses of ImplName are recording an image's source (a
// ckptimg.Image's Impl field) and passing the name on from a method of
// the same name (core's Runtime).
func TestUpperHalfIsImplementationOblivious(t *testing.T) {
	fset, pkgs := checkModule(t)
	internal := func(rel string) string { return module + "/internal/" + rel }
	lower := map[string]bool{}
	for _, rel := range lowerHalf {
		lower[internal(rel)] = true
	}
	byPath := map[string]*checkedPkg{}
	for _, p := range pkgs {
		byPath[p.pkg.Path()] = p
	}
	for _, rel := range upperHalf {
		p := byPath[internal(rel)]
		if p == nil {
			t.Fatalf("package %s not found", internal(rel))
		}
		// Every package p imports, transitively, with the import that
		// first reached it.
		via := map[string]string{}
		var walk func(from *types.Package)
		walk = func(from *types.Package) {
			for _, imp := range from.Imports() {
				if _, seen := via[imp.Path()]; !seen {
					via[imp.Path()] = from.Path()
					walk(imp)
				}
			}
		}
		walk(p.pkg)
		for path, from := range via {
			if lower[path] {
				t.Errorf("%s imports %s (through %s)", rel, path, from)
			}
		}
		for _, f := range p.files {
			for _, use := range implNameUses(p, f) {
				t.Errorf("%s: %s asks which MPI implementation it runs over", fset.Position(use.Pos()), rel)
			}
		}
	}
}

// implNameUses returns where f refers to a method named ImplName other
// than as the value of a ckptimg.Image's Impl field or inside a method
// named ImplName.
func implNameUses(p *checkedPkg, f *ast.File) []ast.Node {
	allowed := map[*ast.SelectorExpr]bool{}
	var out []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil && n.Name.Name == "ImplName" {
				return false
			}
		case *ast.KeyValueExpr:
			key, _ := n.Key.(*ast.Ident)
			call, _ := ast.Unparen(n.Value).(*ast.CallExpr)
			if key == nil || call == nil {
				break
			}
			if field, ok := p.info.Uses[key].(*types.Var); ok && field.IsField() && field.Name() == "Impl" && field.Pkg().Path() == module+"/internal/ckptimg" {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					allowed[sel] = true
				}
			}
		case *ast.SelectorExpr:
			if fn, ok := p.info.Uses[n.Sel].(*types.Func); ok && fn.Name() == "ImplName" && !allowed[n] {
				out = append(out, n)
			}
		}
		return true
	})
	return out
}
