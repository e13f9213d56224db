package engine

import (
	"slices"
	"strings"
	"testing"

	"cape/internal/value"
)

// FuzzReadCSV asserts the CSV loader never panics — arbitrary input
// either loads into a well-formed table or fails with an error — and
// that a loaded table survives WriteCSV → ReadCSV: same header, same row
// count, and row-wise value.Equal values. The one exception is
// encoding/csv's own: its reader turns a quoted "\r\n" into "\n", so a
// loaded string holding "\r\n" reads back with "\n" there.
func FuzzReadCSV(f *testing.F) {
	seeds := []string{
		"a,b\n1,2\n",
		"a\n\n",
		"x,y,z\nfoo,2.5,\n,,\n",
		"h\n\"quoted,comma\"\n",
		"a,b\n1\n", // ragged
		"",
		"\xff\xfe",
		"a,a\n1,2\n", // duplicate column names
		"a\n\"\"\n",  // a one-column NULL row
		"\"\r\r\n\"", // a header holding "\r\n"
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		tab, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		// Loaded tables must be structurally sound: every row matches the
		// schema arity.
		rows := tab.Rows()
		for i, r := range rows {
			if len(r) != len(tab.Schema()) {
				t.Fatalf("row %d arity %d != schema %d", i, len(r), len(tab.Schema()))
			}
		}
		// And they must round-trip through the writer.
		var sb strings.Builder
		if err := tab.WriteCSV(&sb); err != nil {
			t.Fatalf("WriteCSV on loaded table: %v", err)
		}
		back, err := ReadCSV(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("ReadCSV of written table: %v\n%q", err, sb.String())
		}
		crlf := strings.NewReplacer("\r\n", "\n")
		names := tab.Schema().Names()
		for i, n := range names {
			names[i] = crlf.Replace(n)
		}
		if !slices.Equal(back.Schema().Names(), names) {
			t.Fatalf("header %q read back as %q", names, back.Schema().Names())
		}
		if back.NumRows() != len(rows) {
			t.Fatalf("%d rows read back as %d from %q", len(rows), back.NumRows(), sb.String())
		}
		for i, r := range back.Rows() {
			want := rows[i]
			for c, v := range want {
				if v.Kind() == value.String {
					want[c] = value.Parse(crlf.Replace(v.Str()))
				}
			}
			if !r.Equal(want) {
				t.Fatalf("row %d %v read back as %v", i, want, r)
			}
		}
	})
}
