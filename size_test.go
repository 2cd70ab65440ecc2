package manasim

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	mana "manasim/internal/core"
	"manasim/internal/harness"
)

// sizeCounts is the shape of SIZE.json: the numbers the tree may not
// grow past without a PR that edits the file and says why.
type sizeCounts struct {
	// Lines is the non-test Go line count of each package directory.
	Lines        map[string]int `json:"lines"`
	ConfigFields int            `json:"config_fields"`
	CLIFlags     int            `json:"cli_flags"`
	Experiments  int            `json:"experiments"`
	// TestOnlyExports counts package-level exported identifiers under
	// internal/ that _test.go files reference and no other file does.
	TestOnlyExports int `json:"test_only_exports"`
}

// TestSizeRatchet fails when any count rises above SIZE.json, naming
// the count. `make size` prints the counts.
func TestSizeRatchet(t *testing.T) {
	data, err := os.ReadFile("SIZE.json")
	if err != nil {
		t.Fatal(err)
	}
	var limit sizeCounts
	if err := json.Unmarshal(data, &limit); err != nil {
		t.Fatalf("SIZE.json: %v", err)
	}
	got := measureSize(t)

	check := func(name string, n, max int) {
		t.Logf("%-28s %6d  (SIZE.json %d)", name, n, max)
		if n > max {
			t.Errorf("%s is %d, above SIZE.json's %d: shrink it, or raise SIZE.json and say why", name, n, max)
		}
	}
	dirs := make([]string, 0, len(got.Lines))
	for dir := range got.Lines {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		check("lines "+dir, got.Lines[dir], limit.Lines[dir])
	}
	check("core.Config fields", got.ConfigFields, limit.ConfigFields)
	check("manasim CLI flags", got.CLIFlags, limit.CLIFlags)
	check("registered experiments", got.Experiments, limit.Experiments)
	check("test-only exports", got.TestOnlyExports, limit.TestOnlyExports)
}

func measureSize(t *testing.T) sizeCounts {
	t.Helper()
	c := sizeCounts{
		Lines:        map[string]int{},
		ConfigFields: reflect.TypeOf(mana.Config{}).NumField(),
		Experiments:  len(harness.Experiments()),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		c.Lines[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(src, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c.CLIFlags = countFlags(t, filepath.Join("cmd", "manasim", "main.go"))
	names := testOnlyExports(t)
	t.Logf("test-only exports: %s", strings.Join(names, " "))
	c.TestOnlyExports = len(names)
	return c
}

// flagDefiners are the flag.FlagSet methods that define one flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "Int64": true,
	"Int64Var": true, "IntVar": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "Uint64": true, "Uint64Var": true, "UintVar": true, "Var": true,
}

// countFlags counts the flag definitions in a command's source: calls
// of a flagDefiners method whose name argument is a string literal.
func countFlags(t *testing.T, path string) int {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagDefiners[sel.Sel.Name] || len(call.Args) < 2 {
			return true
		}
		// The name is the first argument of the plain definers and the
		// second of the *Var ones.
		for _, arg := range call.Args[:2] {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				n++
				break
			}
		}
		return true
	})
	return n
}

// testOnlyExports type-checks every package of the module twice — its
// own files, then with its _test.go files — and returns, sorted, the
// package-level exported identifiers under internal/ that only test
// files reference. The standard library is type-checked from source.
// Objects are matched by declaration position, since each type-check
// makes its own objects for the same declaration.
func testOnlyExports(t *testing.T) []string {
	t.Helper()
	const module = "manasim"
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	used := map[string]bool{}     // declarations referenced by non-test files
	testUsed := map[string]bool{} // declarations referenced by test files
	at := func(pos token.Pos) string { return fset.Position(pos).String() }
	record := func(info *types.Info) {
		for id, obj := range info.Uses {
			if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), module) {
				continue
			}
			if strings.HasSuffix(fset.Position(id.Pos()).Filename, "_test.go") {
				testUsed[at(obj.Pos())] = true
			} else {
				used[at(obj.Pos())] = true
			}
		}
	}
	check := func(path string, files []*ast.File, via types.Importer) *types.Package {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: via}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		record(info)
		return pkg
	}

	// A module package is parsed and checked once, on first import.
	type parsed struct {
		pkg                     *types.Package
		own, internal, external []*ast.File
	}
	loaded := map[string]*parsed{}
	var via importerFunc
	load := func(path string) (*parsed, error) {
		if p, ok := loaded[path]; ok {
			return p, nil
		}
		dir := filepath.Join(root, strings.TrimPrefix(strings.TrimPrefix(path, module), "/"))
		// Only the files this platform's default build would compile.
		matches := func(fi fs.FileInfo) bool {
			ok, err := build.Default.MatchFile(dir, fi.Name())
			return ok && err == nil
		}
		pkgs, err := parser.ParseDir(fset, dir, matches, 0)
		if err != nil {
			return nil, err
		}
		p := &parsed{}
		for name, ap := range pkgs {
			for fname, f := range ap.Files {
				switch {
				case strings.HasSuffix(name, "_test"):
					p.external = append(p.external, f)
				case strings.HasSuffix(fname, "_test.go"):
					p.internal = append(p.internal, f)
				default:
					p.own = append(p.own, f)
				}
			}
		}
		p.pkg = check(path, p.own, via)
		loaded[path] = p
		return p, nil
	}
	via = func(path string) (*types.Package, error) {
		if path != module && !strings.HasPrefix(path, module+"/") {
			return std.Import(path)
		}
		p, err := load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}

	declared := map[string]string{}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if m, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(m) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := filepath.ToSlash(filepath.Join(module, rel))
		p, err := load(path)
		if err != nil {
			return err
		}
		if strings.HasPrefix(path, module+"/internal/") {
			scope := p.pkg.Scope()
			for _, name := range scope.Names() {
				if obj := scope.Lookup(name); obj.Exported() {
					declared[at(obj.Pos())] = p.pkg.Name() + "." + name
				}
			}
		}
		if len(p.internal)+len(p.external) == 0 {
			return nil
		}
		withTests := check(path, append(append([]*ast.File(nil), p.own...), p.internal...), via)
		if len(p.external) > 0 {
			// The external test package sees the package with its
			// _test.go files, as go test builds it.
			check(path+"_test", p.external, importerFunc(func(imp string) (*types.Package, error) {
				if imp == path {
					return withTests, nil
				}
				return via(imp)
			}))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for pos, name := range declared {
		if testUsed[pos] && !used[pos] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
