package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestRender pins the text renderer: headers from the col tags,
// each cell printed with its verb after its scale, strings aligned left
// and everything else right, untagged fields left out, and a table with
// no rows still printing its title and header.
func TestRender(t *testing.T) {
	type row struct {
		Name   string  `col:"Name,%s"`
		Bytes  uint64  `col:"KB,%.1f,1e-3"`
		Pct    float64 `col:"Change,%+.1f%%"`
		OK     Verdict `col:"Restart,%s"`
		Hidden int
	}
	var buf bytes.Buffer
	Render(&buf, Table{
		Title: "Title",
		Notes: []string{"a note"},
		Rows:  []row{{"a", 1500, 2.25, true, 7}, {"longer", 20, -10, false, 7}},
	}, Table{Title: "Empty", Rows: []row{}})
	want := `Title
=====
a note
Name     KB  Change   Restart
a       1.5   +2.2%        ok
longer  0.0  -10.0%  MISMATCH

Empty
=====
Name  KB  Change  Restart

`
	if got := buf.String(); got != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", got, want)
	}
}

// TestTableJSONRoundTrip: a table's JSON form carries every field of
// its rows, tagged or not, and decodes back to the same rows.
func TestTableJSONRoundTrip(t *testing.T) {
	in := []DrainScaleRow{{Ranks: 64, Strategy: "toposort", CkptVTS: 9.25, DrainVTS: 5.08e-4, CtlMsgs: 4032, CtlBytes: 96768, WallS: 0.01}}
	data, err := json.Marshal(Table{Title: "sweep", Notes: []string{"n"}, Rows: in})
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Title string
		Notes []string
		Rows  []DrainScaleRow
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Title != "sweep" || !reflect.DeepEqual(out.Notes, []string{"n"}) || !reflect.DeepEqual(out.Rows, in) {
		t.Fatalf("round trip: %+v\nJSON: %s", out, data)
	}
}
