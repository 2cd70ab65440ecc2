package manasim

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	// UnusedExports counts the exported identifiers under internal/ —
	// package-level ones and the methods of every package-level named
	// type, interface methods included — that no non-test file
	// references.
	UnusedExports int `json:"unused_exports"`
	// SyncSites counts the non-test uses under internal/ of sync's
	// Mutex, RWMutex, Cond, Once and WaitGroup and of sync/atomic.
	SyncSites int `json:"sync_sites"`
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
	check("unused exports", got.UnusedExports, limit.UnusedExports)
	check("sync sites", got.SyncSites, limit.SyncSites)
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
	names := unusedExports(t)
	for _, name := range names {
		why := keptExports[name]
		if why == "" {
			why = "no reason recorded"
		}
		t.Logf("unused export %s: %s", name, why)
	}
	c.UnusedExports = len(names)
	sites := syncSites(t)
	for _, site := range sites {
		why := keptSyncSites[site]
		if why == "" {
			why = "no reason recorded"
		}
		t.Logf("sync site %s: %s", site, why)
	}
	c.SyncSites = len(sites)
	return c
}

// keptSyncSites names the synchronization the tree keeps on purpose and
// why; `make size` prints each beside its reason. The kernel runs a
// job's ranks as coroutines of one loop, one at a time, which orders
// everything the job touches, so a lock or an atomic needs a caller the
// kernel does not order.
var keptSyncSites = map[string]string{
	"mpi.opRegistry": "mpi.RegisterOp is public API that application code may call from any goroutine",
}

// syncPrimitives are the sync types that synchronize goroutines.
// sync.Pool is not among them: it recycles memory, and a pool shared
// by goroutines the kernel orders needs no other lock.
var syncPrimitives = map[string]bool{"Mutex": true, "RWMutex": true, "Cond": true, "Once": true, "WaitGroup": true}

// syncSites returns, sorted, the non-test uses under internal/ of a
// syncPrimitives type or of any sync/atomic identifier, each named by
// the declaration holding it: pkg.Type.field for a struct field (the
// type's name for an embedded one), pkg.Recv.Method or pkg.Func for a
// function, pkg.name for anything else.
func syncSites(t *testing.T) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		// local names the file imports sync and sync/atomic under
		local := map[string]string{}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p != "sync" && p != "sync/atomic" {
				continue
			}
			name := filepath.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = p
		}
		if len(local) == 0 {
			return nil
		}
		// collect appends one site named name per use inside node.
		collect := func(name string, node ast.Node) {
			ast.Inspect(node, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok {
					switch local[x.Name] {
					case "sync/atomic":
						out = append(out, name)
					case "sync":
						if syncPrimitives[sel.Sel.Name] {
							out = append(out, name)
						}
					}
				}
				return true
			})
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := pkg + "." + decl.Name.Name
				if decl.Recv != nil {
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = pkg + "." + id.Name + "." + decl.Name.Name
					}
				}
				collect(name, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							collect(pkg+"."+spec.Name.Name, spec)
							continue
						}
						for _, field := range st.Fields.List {
							names := field.Names
							if len(names) == 0 { // embedded
								ast.Inspect(field.Type, func(n ast.Node) bool {
									if sel, ok := n.(*ast.SelectorExpr); ok {
										names = []*ast.Ident{sel.Sel}
									}
									return true
								})
							}
							for _, fn := range names {
								collect(pkg+"."+spec.Name.Name+"."+fn.Name, field.Type)
							}
						}
					case *ast.ValueSpec:
						collect(pkg+"."+spec.Names[0].Name, spec)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
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

// keptExports names the unused exports the tree keeps on purpose and
// why; `make size` prints each beside its reason.
var keptExports = map[string]string{
	"mpi.RegisterOp":                   "the runtime's restart errors tell applications to register user ops with it",
	"mpi.Status.Count":                 "MPI_Get_count's place in the MPI surface applications program against",
	"mpi.Proc.WTime":                   "MPI_Wtime's place in the MPI surface; ROADMAP item 15 decides",
	"mpibase.Proc.WTime":               "implements mpi.Proc.WTime; ROADMAP item 15 decides",
	"mana.Runtime.WTime":               "implements mpi.Proc.WTime under MANA; ROADMAP item 15 decides",
	"cluster.crashError.CrashVT":       "the contract behind cluster's errors.As on a crashed rank",
	"faults.CrashError.CrashVT":        "the contract behind cluster's errors.As on an injected crash",
	"apps.Spec.Compatible":             "states which implementations an application runs on",
	"ckptstore.Store.LastRetentionErr": "the only reader of a failed retention pass",
}

// stdCalled are the method names the standard library calls through
// its own interfaces (fmt.Stringer, error, errors.Unwrap,
// fmt.Formatter), so a method so named counts as referenced.
var stdCalled = map[string]bool{"String": true, "Error": true, "Unwrap": true, "Format": true}

// unusedExports type-checks the non-test files of every package of
// the module and returns, sorted, the exported identifiers under
// internal/ that no non-test file references: package-level ones, and
// the exported methods of every package-level named type, interface
// methods included. A concrete method also counts as referenced when
// it implements an interface method, of a named or an anonymous module
// interface, that non-test code calls. The standard library is
// type-checked from source. Objects are matched by declaration
// position.
func unusedExports(t *testing.T) []string {
	t.Helper()
	const module = "manasim"
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	at := func(pos token.Pos) string { return fset.Position(pos).String() }
	used := map[string]bool{} // declarations referenced by non-test files
	// called groups the interface methods non-test code calls by the
	// interface they belong to.
	called := map[types.Type][]*types.Func{}
	var concrete []*types.Named // the module's non-interface named types

	// A module package is parsed and checked once, on first import.
	loaded := map[string]*types.Package{}
	var via importerFunc
	load := func(path string) (*types.Package, error) {
		if pkg, ok := loaded[path]; ok {
			return pkg, nil
		}
		dir := filepath.Join(root, strings.TrimPrefix(strings.TrimPrefix(path, module), "/"))
		// Only the non-test files this platform's default build would
		// compile.
		matches := func(fi fs.FileInfo) bool {
			ok, err := build.Default.MatchFile(dir, fi.Name())
			return ok && err == nil && !strings.HasSuffix(fi.Name(), "_test.go")
		}
		pkgs, err := parser.ParseDir(fset, dir, matches, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, ap := range pkgs {
			for _, f := range ap.Files {
				files = append(files, f)
			}
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: via}).Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		for _, obj := range info.Uses {
			if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), module) || used[at(obj.Pos())] {
				continue
			}
			used[at(obj.Pos())] = true
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					called[recv.Type()] = append(called[recv.Type()], fn)
				}
			}
		}
		loaded[path] = pkg
		return pkg, nil
	}
	via = func(path string) (*types.Package, error) {
		if path != module && !strings.HasPrefix(path, module+"/") {
			return std.Import(path)
		}
		return load(path)
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
		pkg, err := load(path)
		if err != nil {
			return fmt.Errorf("type-checking %s: %w", path, err)
		}
		inInternal := strings.HasPrefix(path, module+"/internal/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if inInternal && obj.Exported() {
				declared[at(obj.Pos())] = pkg.Name() + "." + name
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || named.Obj() != obj {
				continue
			}
			var methods []*types.Func
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					methods = append(methods, iface.ExplicitMethod(i))
				}
			} else {
				concrete = append(concrete, named)
				for i := 0; i < named.NumMethods(); i++ {
					methods = append(methods, named.Method(i))
				}
			}
			for _, m := range methods {
				if inInternal && m.Exported() && !stdCalled[m.Name()] {
					declared[at(m.Pos())] = pkg.Name() + "." + name + "." + m.Name()
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A call through an interface method reaches every implementation.
	for it, methods := range called {
		iface := it.Underlying().(*types.Interface)
		for _, c := range concrete {
			recv := types.Type(c)
			if !types.Implements(recv, iface) {
				if recv = types.NewPointer(c); !types.Implements(recv, iface) {
					continue
				}
			}
			for _, m := range methods {
				if impl, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name()); impl != nil {
					used[at(impl.Pos())] = true
				}
			}
		}
	}
	var out []string
	for pos, name := range declared {
		if !used[pos] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
