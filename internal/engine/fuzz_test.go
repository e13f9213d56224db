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

// FuzzOpenSegmentBytes throws arbitrary bytes at the CAPESEG1 segment
// reader. Opening must never panic: a corrupt image is an error. An
// image that opens must read back without panic at every row; past
// 1<<16 rows (a bit-width-0 column holds any row count in no bytes) an
// even sample of rows and the last one is read instead. The seeds are
// SegmentWriter.Encode images over every value kind, NULLs, RLE runs and
// bit-packed codes.
func FuzzOpenSegmentBytes(f *testing.F) {
	sch := Schema{
		{Name: "s", Kind: value.String},
		{Name: "i", Kind: value.Int},
		{Name: "f", Kind: value.Float},
		{Name: "m", Kind: value.Null},
	}
	for _, n := range []int{0, 1, 9, 300} {
		w := NewSegmentWriter(sch)
		for r := 0; r < n; r++ {
			m := value.NewNull()
			switch r % 3 {
			case 1:
				m = value.NewInt(int64(r))
			case 2:
				m = value.NewString("x")
			}
			row := value.Tuple{
				value.NewString(string(rune('a' + r/50))), // long runs: RLE
				value.NewInt(int64(r * 7919 % 97)),        // scattered codes: bit-packed
				value.NewFloat(float64(r%5) / 2),
				m,
			}
			if err := w.Append(row); err != nil {
				f.Fatal(err)
			}
		}
		img, err := w.Encode()
		if err != nil {
			f.Fatal(err)
		}
		if seg, err := OpenSegmentBytes(img); err != nil || seg.NumRows() != n {
			f.Fatalf("a %d-row seed image does not open: %v", n, err)
		}
		f.Add(img)
		if len(img) > 16 {
			flipped := slices.Clone(img)
			flipped[len(img)/2] ^= 0x40
			f.Add(flipped)
			f.Add(img[:len(img)-9])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("CAPESEG1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := OpenSegmentBytes(data)
		if err != nil {
			return
		}
		n := seg.NumRows()
		if n < 0 || len(seg.Schema()) == 0 && n > 0 {
			t.Fatalf("opened segment has %d rows over schema %v", n, seg.Schema())
		}
		step := max(1, n>>16)
		var buf value.Tuple
		for r := 0; r < n; r += step {
			if buf = seg.AppendRowAt(r, buf[:0]); len(buf) != len(seg.Schema()) {
				t.Fatalf("row %d has %d values over %d columns", r, len(buf), len(seg.Schema()))
			}
		}
		if n > 0 {
			seg.AppendRowAt(n-1, buf[:0])
		}
	})
}
