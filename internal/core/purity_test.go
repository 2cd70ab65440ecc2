package mana

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"manasim/internal/apps"
	"manasim/internal/cluster"
	"manasim/internal/impls"
)

// hostClockAllowed lists the only functions of internal/* that may read
// the host clock: wall-time *reporters*, whose readings never reach a
// simtime.Clock. Keys are "<path under internal/>:<function>".
var hostClockAllowed = map[string]bool{
	"cluster/cluster.go:(*Job).Start":      true, // Result.Wall, start
	"cluster/cluster.go:(*Job).WaitResult": true, // Result.Wall, end
	"harness/drainscale.go:drainScaleCell": true, // DrainScaleRow.WallS
}

// funcName renders a declaration the way the allow-list spells it.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var recv string
	switch x := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			recv = "(*" + id.Name + ")"
		}
	case *ast.Ident:
		recv = x.Name
	}
	return recv + "." + fd.Name.Name
}

// TestNoHostClockInModel walks the non-test sources of internal/* and
// fails on any time.Now, time.Since or time.Until outside the
// allow-list. cmd/ and bench/ measure the simulator from outside and
// are out of scope.
func TestNoHostClockInModel(t *testing.T) {
	root := ".." // internal/
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		// The local name of package "time" in this file, if imported.
		timeName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			}
		}
		if timeName == "" {
			return nil
		}
		for _, decl := range f.Decls {
			where := "package scope"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				where = funcName(fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok || pkg.Name != timeName {
					return true
				}
				switch sel.Sel.Name {
				case "Now", "Since", "Until":
					if !hostClockAllowed[rel+":"+where] {
						t.Errorf("%s: time.%s in %s: virtual time may not read the host clock (allow-list: hostClockAllowed)",
							fset.Position(sel.Pos()), sel.Sel.Name, where)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d source files under %s: wrong directory?", files, root)
	}
}

// pureStats runs one checkpoint + restart of an 8-rank job on the event
// kernel under the default configuration (no translation-cost override)
// and returns both sessions' Stats, wall time zeroed, as JSON.
func pureStats(t *testing.T, implName, appName string, design Design) (run, restart Stats, enc []byte) {
	t.Helper()
	spec, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	in := spec.DefaultInput(apps.SiteDiscovery)
	in.Ranks = 8
	in.SimSteps = 6
	in.PollsPerStep = 4
	in.Seed = 24
	factory, err := impls.Get(implName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ImplName: implName, Factory: factory, Kernel: cluster.KernelEvent, Design: design, ExitAtCheckpoint: true}
	run, images, err := Run(cfg, in.Ranks, spec.New(in), in.SimSteps/2)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if run.CkptTaken != 1 {
		t.Fatalf("run took %d checkpoints, want 1", run.CkptTaken)
	}
	cfg.ExitAtCheckpoint = false
	restart, err = Restart(cfg, images, spec.New(in))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	run.Wall, restart.Wall = 0, 0
	enc, err = json.Marshal([]Stats{run, restart})
	if err != nil {
		t.Fatal(err)
	}
	return run, restart, enc
}

// firstStatsDiff names the first Stats field two runs disagree on.
func firstStatsDiff(a, b Stats) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return fmt.Sprintf("%s: %v != %v", va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	return "none"
}

// TestVirtualTimePureFunction: virtual time is a pure function of
// (config, seed). With nothing pinned, the same job run twice in one
// process and once each at GOMAXPROCS 1 and 4 yields byte-identical
// Stats, on every implementation and both vid designs.
func TestVirtualTimePureFunction(t *testing.T) {
	for _, implName := range impls.Names() {
		// ExaMPI runs the compatible subset: CoMD stands in there.
		appNames := []string{"lammps", "hpcg"}
		if implName == "exampi" {
			appNames = []string{"comd"}
		}
		for _, appName := range appNames {
			for _, design := range []Design{DesignVirtID, DesignLegacy} {
				if design == DesignLegacy && implName != "mpich" && implName != "craympi" {
					continue // the legacy maps assume MPICH-family handles
				}
				t.Run(fmt.Sprintf("%s/%s/%s", implName, appName, design), func(t *testing.T) {
					refRun, refRestart, ref := pureStats(t, implName, appName, design)
					check := func(what string) {
						run, restart, enc := pureStats(t, implName, appName, design)
						if !bytes.Equal(ref, enc) {
							t.Errorf("%s: Stats differ from the first run; run: %s; restart: %s",
								what, firstStatsDiff(refRun, run), firstStatsDiff(refRestart, restart))
						}
					}
					check("second run")
					for _, procs := range []int{1, 4} {
						prev := runtime.GOMAXPROCS(procs)
						check(fmt.Sprintf("GOMAXPROCS=%d", procs))
						runtime.GOMAXPROCS(prev)
					}
				})
			}
		}
	}
}
