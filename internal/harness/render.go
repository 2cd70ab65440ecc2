package harness

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is one result of an experiment: a title, note lines, and typed
// rows. Rows holds a slice of structs or of pointers to structs. Each
// field tagged `col:"Header,verb[,scale]"` is one text column: the
// value is multiplied by scale when one is given (numeric fields only)
// and printed with the fmt verb. Untagged fields appear in the JSON
// form only, which is the Table itself through encoding/json.
type Table struct {
	Title string   `json:"title"`
	Notes []string `json:"notes,omitempty"`
	Rows  any      `json:"rows"`
}

// Verdict is a restart's checksum check: it prints "ok", or "MISMATCH"
// when the restarted run's checksums differ from an uninterrupted run's.
type Verdict bool

func (v Verdict) String() string {
	if v {
		return "ok"
	}
	return "MISMATCH"
}

// column is one parsed `col` tag.
type column struct {
	field        int
	header, verb string
	scale        float64 // 0: print the value as is
	left         bool    // strings align left, everything else right
}

func columns(t reflect.Type) []column {
	var cols []column
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("col")
		if !ok {
			continue
		}
		header, rest, _ := strings.Cut(tag, ",")
		verb, scale, scaled := strings.Cut(rest, ",")
		c := column{field: i, header: header, verb: verb, left: f.Type.Kind() == reflect.String}
		if scaled {
			var err error
			if c.scale, err = strconv.ParseFloat(scale, 64); err != nil {
				panic(fmt.Sprintf("harness: %s.%s: col tag %q: %v", t.Name(), f.Name, tag, err))
			}
		}
		cols = append(cols, c)
	}
	return cols
}

func (c column) format(v reflect.Value) string {
	if c.scale == 0 {
		return fmt.Sprintf(c.verb, v.Interface())
	}
	return fmt.Sprintf(c.verb, v.Convert(reflect.TypeFor[float64]()).Float()*c.scale)
}

// Render prints each table as its title, underlined, its notes, and
// its tagged columns sized to their widest cell, followed by a blank
// line.
func Render(w io.Writer, tables ...Table) {
	for _, t := range tables {
		fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", utf8.RuneCountInString(t.Title)))
		for _, n := range t.Notes {
			fmt.Fprintln(w, n)
		}
		rows := reflect.ValueOf(t.Rows)
		if rows.Kind() == reflect.Slice {
			elem := rows.Type().Elem()
			if elem.Kind() == reflect.Pointer {
				elem = elem.Elem()
			}
			cols := columns(elem)
			lines := make([][]string, rows.Len()+1)
			widths := make([]int, len(cols))
			for r := range lines {
				for i, c := range cols {
					s := c.header
					if r > 0 {
						s = c.format(reflect.Indirect(rows.Index(r - 1)).Field(c.field))
					}
					lines[r] = append(lines[r], s)
					widths[i] = max(widths[i], utf8.RuneCountInString(s))
				}
			}
			for _, line := range lines {
				var b strings.Builder
				for i, s := range line {
					pad := strings.Repeat(" ", widths[i]-utf8.RuneCountInString(s))
					if i > 0 {
						b.WriteString("  ")
					}
					if cols[i].left {
						s, pad = s+pad, ""
					}
					b.WriteString(pad + s)
				}
				fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
			}
		}
		fmt.Fprintln(w)
	}
}
