package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenOpts is the size every experiment's golden is taken at.
var goldenOpts = Options{Fast: 2}

// TestGoldenExperiments runs every registered experiment at goldenOpts
// and byte-compares its tables, as JSON with the wall-clock fields
// zeroed, against testdata/golden/<name>.json. Every modeled number is
// a pure function of (config, seed), so any difference is a change in
// the model: the first one is reported as experiment / table / row /
// field / golden / now. Regenerate with
//
//	go test ./internal/harness -run Golden -update
//
// The experiments run in parallel: no mutable state is process-global,
// so one experiment's jobs cannot move another's numbers.
func TestGoldenExperiments(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			tables, err := e.Run(goldenOpts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(zeroWallClock(tables), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", e.Name+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (create it with -update)", err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: %s\n(if the change is intended: go test ./internal/harness -run Golden -update)",
					e.Name, firstDiff(want, got))
			}
		})
	}
}

// zeroWallClock returns tables whose row fields tagged `clock:"wall"`
// (host wall-clock readings, which no run reproduces) are zero.
func zeroWallClock(tables []Table) []Table {
	out := make([]Table, len(tables))
	for i, t := range tables {
		out[i] = t
		rows := reflect.ValueOf(t.Rows)
		if rows.Kind() != reflect.Slice || rows.Type().Elem().Kind() != reflect.Struct {
			continue // no wall-clock field is kept in pointer rows
		}
		cp := reflect.MakeSlice(rows.Type(), rows.Len(), rows.Len())
		reflect.Copy(cp, rows)
		elem := rows.Type().Elem()
		for f := 0; f < elem.NumField(); f++ {
			if elem.Field(f).Tag.Get("clock") != "wall" {
				continue
			}
			for r := 0; r < cp.Len(); r++ {
				cp.Index(r).Field(f).SetZero()
			}
		}
		out[i].Rows = cp.Interface()
	}
	return out
}

// goldenTable is a table as its golden decodes.
type goldenTable struct {
	Title string
	Notes []string
	Rows  []map[string]any
}

// firstDiff names the first table, row and field where two golden
// encodings disagree.
func firstDiff(want, got []byte) string {
	var w, g []goldenTable
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Sprintf("golden does not decode: %v", err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Sprintf("output does not decode: %v", err)
	}
	if len(w) != len(g) {
		return fmt.Sprintf("%d tables, golden has %d", len(g), len(w))
	}
	for i := range g {
		tw, tg := w[i], g[i]
		if tw.Title != tg.Title {
			return fmt.Sprintf("table %d title: golden %q, now %q", i, tw.Title, tg.Title)
		}
		if !reflect.DeepEqual(tw.Notes, tg.Notes) {
			return fmt.Sprintf("table %q notes: golden %q, now %q", tg.Title, tw.Notes, tg.Notes)
		}
		if len(tw.Rows) != len(tg.Rows) {
			return fmt.Sprintf("table %q: %d rows, golden has %d", tg.Title, len(tg.Rows), len(tw.Rows))
		}
		for r := range tg.Rows {
			if d := valueDiff("", tw.Rows[r], tg.Rows[r]); d != "" {
				return fmt.Sprintf("table %q row %d (%s) field %s", tg.Title, r, rowLabel(tg.Rows[r]), d)
			}
		}
	}
	return "same values, different bytes"
}

// valueDiff names the first path below two decoded JSON values where
// they differ, with both values ("" if they are equal).
func valueDiff(path string, w, g any) string {
	switch wv := w.(type) {
	case map[string]any:
		gv, ok := g.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(wv)+len(gv))
		for k := range wv {
			keys = append(keys, k)
		}
		for k := range gv {
			if _, ok := wv[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := valueDiff(strings.TrimPrefix(path+"."+k, "."), wv[k], gv[k]); d != "" {
				return d
			}
		}
		return ""
	case []any:
		gv, ok := g.([]any)
		if !ok || len(gv) != len(wv) {
			break
		}
		for i := range wv {
			if d := valueDiff(fmt.Sprintf("%s[%d]", path, i), wv[i], gv[i]); d != "" {
				return d
			}
		}
		return ""
	}
	if reflect.DeepEqual(w, g) {
		return ""
	}
	return fmt.Sprintf("%s: golden %v, now %v", path, w, g)
}

// rowLabel names a row by its string fields.
func rowLabel(row map[string]any) string {
	var parts []string
	for k, v := range row {
		if s, ok := v.(string); ok {
			parts = append(parts, k+"="+s)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
