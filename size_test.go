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
	// WriteOnlyFields counts the fields of the package-level struct
	// types under internal/ that non-test code may write but never
	// reads (writeOnlyFields).
	WriteOnlyFields int `json:"write_only_fields"`
	// UncalledProcMethods counts the mpi.Proc methods no non-test file
	// calls except to pass the call through (uncalledMethods).
	UncalledProcMethods int `json:"uncalled_proc_methods"`
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
	check("write-only fields", got.WriteOnlyFields, limit.WriteOnlyFields)
	check("uncalled mpi.Proc methods", got.UncalledProcMethods, limit.UncalledProcMethods)
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
	fset, pkgs := checkModule(t)
	c.UnusedExports = logKept(t, "unused export", unusedExports(fset, pkgs), keptExports)
	c.WriteOnlyFields = logKept(t, "write-only field", writeOnlyFields(pkgs), keptFields)
	c.SyncSites = logKept(t, "sync site", syncSites(t), keptSyncSites)
	var proc *types.Named
	for _, p := range pkgs {
		if p.pkg.Path() == module+"/internal/mpi" {
			proc = p.pkg.Scope().Lookup("Proc").Type().(*types.Named)
		}
	}
	c.UncalledProcMethods = logKept(t, "uncalled mpi.Proc method", uncalledMethods(pkgs, proc), keptProcMethods)
	return c
}

// logKept logs each of names with the reason kept gives for it and
// returns how many there are.
func logKept(t *testing.T, what string, names []string, kept map[string]string) int {
	for _, name := range names {
		why := kept[name]
		if why == "" {
			why = "no reason recorded"
		}
		t.Logf("%s %s: %s", what, name, why)
	}
	return len(names)
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
	"mpibase.Proc.CommContext":         "bench/trace.go's lowerExtras asserts it on every traced lower half (ROADMAP item 10)",
	"mpibase.Proc.SleepUntil":          "bench/trace.go's lowerExtras asserts it on every traced lower half (ROADMAP item 10)",
	"apps.Spec.Compatible":             "states which implementations an application runs on",
	"ckptstore.Store.LastRetentionErr": "the only reader of a failed retention pass",
}

// keptProcMethods names the uncalled mpi.Proc methods the tree keeps on
// purpose and why; `make size` prints each beside its reason.
var keptProcMethods = map[string]string{
	"mpi.Proc.Abort": "the cluster installs the job teardown behind it through SetAbort, which bench/trace.go's lowerExtras asserts; no application aborts",
}

// keptFields names the write-only fields the tree keeps on purpose and
// why; `make size` prints each beside its reason.
var keptFields = map[string]string{
	"mana.Config.Kernel":        "deprecated and ignored; bench/scenario.go's baseConfig still sets it (ROADMAP item 10)",
	"mana.Config.StreamRestart": "deprecated and ignored; bench/scenario.go's baseConfig still sets it (ROADMAP item 10)",
	"mana.Stats.PerRankVT":      "bench/bench_test.go reads it",
}

// stdCalled are the method names the standard library calls through
// its own interfaces (fmt.Stringer, error, errors.Unwrap,
// fmt.Formatter), so a method so named counts as referenced.
var stdCalled = map[string]bool{"String": true, "Error": true, "Unwrap": true, "Format": true}

// module is the module path of every package the ratchet checks.
const module = "manasim"

// checkedPkg is one type-checked package: its non-test files and what
// the checker recorded about them.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// checkModule type-checks the non-test files of every package of the
// module, each once, the standard library from source, and returns them
// in directory order.
func checkModule(t *testing.T) (*token.FileSet, []*checkedPkg) {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	// A module package is parsed and checked once, on first import.
	loaded := map[string]*checkedPkg{}
	var via importerFunc
	load := func(path string) (*checkedPkg, error) {
		if p, ok := loaded[path]; ok {
			return p, nil
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
		p := &checkedPkg{info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}}
		for _, ap := range pkgs {
			for _, f := range ap.Files {
				p.files = append(p.files, f)
			}
		}
		if p.pkg, err = (&types.Config{Importer: via}).Check(path, fset, p.files, p.info); err != nil {
			return nil, err
		}
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

	var out []*checkedPkg
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
			return fmt.Errorf("type-checking %s: %w", path, err)
		}
		out = append(out, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, out
}

// unusedExports returns, sorted, the exported identifiers under
// internal/ that no non-test file references: package-level ones, and
// the exported methods of every package-level named type, interface
// methods included. A concrete method also counts as referenced when
// it implements an interface method, of a named or an anonymous module
// interface, that non-test code calls. Objects are matched by
// declaration position.
func unusedExports(fset *token.FileSet, pkgs []*checkedPkg) []string {
	at := func(pos token.Pos) string { return fset.Position(pos).String() }
	used := map[string]bool{} // declarations referenced by non-test files
	// called groups the interface methods non-test code calls by the
	// interface they belong to.
	called := map[types.Type][]*types.Func{}
	var concrete []*types.Named // the module's non-interface named types
	declared := map[string]string{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
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
		inInternal := strings.HasPrefix(p.pkg.Path(), module+"/internal/")
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if inInternal && obj.Exported() {
				declared[at(obj.Pos())] = p.pkg.Name() + "." + name
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
					declared[at(m.Pos())] = p.pkg.Name() + "." + name + "." + m.Name()
				}
			}
		}
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

// writeOnlyFields returns, sorted, the fields of the package-level
// struct types under internal/, exported or not, that no file of pkgs
// reads, each named pkg.Type.field. A use writes a field, and does not
// read it, where the field is an assignment's target (op-assigns
// included), the operand of ++ or --, or a composite literal's key;
// every other use reads it. A struct with any tag is read by reflection
// and is not counted, nor is an embedded field, which any interface the
// struct satisfies through it reads. Comparing a struct with == or !=,
// or keying a map with it, reads every field.
func writeOnlyFields(pkgs []*checkedPkg) []string {
	read := map[*types.Var]bool{}
	var compared func(t types.Type)
	compared = func(t types.Type) {
		if t == nil {
			return
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				if f := u.Field(i); !read[f.Origin()] {
					read[f.Origin()] = true
					compared(f.Type())
				}
			}
		case *types.Array:
			compared(u.Elem())
		}
	}
	for _, p := range pkgs {
		written := map[*ast.Ident]bool{}
		target := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				written[sel.Sel] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						compared(p.info.TypeOf(n.X))
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
				read[v.Origin()] = true
			}
		}
		for _, tv := range p.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				compared(m.Key())
			}
		}
	}
	var out []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.pkg.Path(), module+"/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || tagged(st) {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); !f.Embedded() && !read[f] {
					out = append(out, p.pkg.Name()+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// uncalledMethods returns, sorted, the methods of the interface iface
// that no file of pkgs references, each named pkg.Iface.Method, except
// from inside a method of the same name: a wrapper that passes the call
// on to the interface it wraps (core's Runtime, bench's tracing taps)
// is not a caller.
func uncalledMethods(pkgs []*checkedPkg, iface *types.Named) []string {
	called := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if obj := p.info.Uses[sel.Sel]; obj != nil && (fd.Recv == nil || obj.Name() != fd.Name.Name) {
							called[obj] = true
						}
					}
					return true
				})
			}
		}
	}
	var out []string
	it := iface.Underlying().(*types.Interface)
	for i := range it.NumMethods() {
		if m := it.Method(i); !called[m] {
			out = append(out, iface.Obj().Pkg().Name()+"."+iface.Obj().Name()+"."+m.Name())
		}
	}
	sort.Strings(out)
	return out
}

// TestUncalledMethodsRule runs uncalledMethods over a small in-memory
// package: a method called through the interface is a caller's, one
// only passed on by a method of its own name and one never called are
// not.
func TestUncalledMethodsRule(t *testing.T) {
	const src = `package p

type Proc interface{ Called(); PassedOn(); Never() }

type wrapper struct{ in Proc }

func (w wrapper) PassedOn() { w.in.PassedOn() }

func use(p Proc) { p.Called() }
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &checkedPkg{files: []*ast.File{file}, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	if p.pkg, err = (&types.Config{}).Check(module+"/internal/p", fset, p.files, p.info); err != nil {
		t.Fatal(err)
	}
	got := uncalledMethods([]*checkedPkg{p}, p.pkg.Scope().Lookup("Proc").Type().(*types.Named))
	if want := []string{"p.Proc.Never", "p.Proc.PassedOn"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("uncalled methods %v, want %v", got, want)
	}
}

// tagged reports whether any field of st carries a struct tag.
func tagged(st *types.Struct) bool {
	for i := range st.NumFields() {
		if st.Tag(i) != "" {
			return true
		}
	}
	return false
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestWriteOnlyFieldsRule runs writeOnlyFields over a small in-memory
// package: a field only assigned, only op-assigned, only incremented or
// only set in a composite literal is flagged; a field read anywhere, a
// tagged struct's fields and the fields of a struct compared with == or
// used as a map key are not.
func TestWriteOnlyFieldsRule(t *testing.T) {
	const src = `package p

type T struct {
	assigned, opAssigned, incremented, literal int
	read, readInLiteral                        int
	unused                                     int
}

type tagged struct {
	a int ` + "`json:\"a\"`" + `
	b int
}

type key struct{ a, b int }

type pair struct {
	x   int
	sub struct{ y int }
}

func f() int {
	var t T
	t.assigned = 1
	t.opAssigned += 2
	t.incremented++
	u := T{literal: 1, readInLiteral: t.read}
	var g tagged
	g.b = 1
	m := map[key]int{{a: 1, b: 2}: 3}
	var p, q pair
	p.x = 1
	q.sub.y = 2
	if p == q {
		return m[key{}]
	}
	return u.readInLiteral
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &checkedPkg{files: []*ast.File{file}, info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}}
	if p.pkg, err = (&types.Config{}).Check(module+"/internal/p", fset, p.files, p.info); err != nil {
		t.Fatal(err)
	}
	got := writeOnlyFields([]*checkedPkg{p})
	want := []string{"p.T.assigned", "p.T.incremented", "p.T.literal", "p.T.opAssigned", "p.T.unused"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("write-only fields %v, want %v", got, want)
	}
}
