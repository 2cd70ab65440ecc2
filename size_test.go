package manasim

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
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
