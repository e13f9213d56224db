package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"cape/internal/value"
)

// These tests pin the kernels over sealed segments to the row-oriented
// reference exactly like the columnar differential suite: same random
// tables, same queries, byte-identical results. Each table is sealed
// into a SegTable of segments plus a tail; half the tables are first
// sorted on a column, so long runs make the segment writer choose RLE
// next to bit-packed payloads. Results are additionally cross-checked
// against a dense Table over the same rows, so a divergence is
// attributable.

// sealedClone seals tab into a SegTable (two segments plus a tail) and
// returns it with a dense Table over the rows it reads back — segments
// canonicalize AppendKey-equal values to one representative.
func sealedClone(t *testing.T, rng *rand.Rand, tab *Table) (*SegTable, *Table) {
	t.Helper()
	if rng.Intn(2) == 0 {
		tab = tab.Clone()
		if err := tab.SortBy(randomCols(rng, tab, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := segTableFromTable(t, tab, 2)
	return st, readBack(t, st)
}

func TestCompressedColRoundTrip(t *testing.T) {
	cases := [][]int32{
		nil,
		{0},
		{0, 0, 0, 0, 0}, // single-value run
		{0, 1, 0, 1, 0, 1},
		{2, 2, 1, 1, 0, 0, 2},
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(300)
		d := 1 + rng.Intn(9)
		codes := make([]int32, n)
		for i := range codes {
			if rng.Intn(4) == 0 && i > 0 {
				codes[i] = codes[i-1] // encourage runs
			} else {
				codes[i] = int32(rng.Intn(d))
			}
		}
		cases = append(cases, codes)
	}
	for ci, codes := range cases {
		maxCode := int32(-1)
		for _, c := range codes {
			if c > maxCode {
				maxCode = c
			}
		}
		dict := make([]value.V, maxCode+1)
		for i := range dict {
			dict[i] = value.NewInt(int64(i))
		}
		cc := compressCodes(codes, dict)
		if cc.n != len(codes) {
			t.Fatalf("case %d: %d rows != %d", ci, cc.n, len(codes))
		}
		// Random access.
		for i, want := range codes {
			if got := cc.CodeAt(i); got != want {
				t.Fatalf("case %d (%s): CodeAt(%d) = %d, want %d", ci, cc.EncodingName(), i, got, want)
			}
		}
		// Sequential run cursor must cover every row with the right code
		// and strictly advancing run ends.
		var cur runCur
		cur.init(cc)
		for pos := int32(0); pos < int32(len(codes)); pos = cur.end {
			cur.seek(pos)
			if cur.end <= pos {
				t.Fatalf("case %d: run end %d did not advance past %d", ci, cur.end, pos)
			}
			for r := pos; r < cur.end; r++ {
				if codes[r] != cur.code {
					t.Fatalf("case %d: run code %d at row %d, want %d", ci, cur.code, r, codes[r])
				}
			}
		}
		// The alternative encoding must agree too.
		alt := &CompressedCol{n: len(codes), dict: dict}
		alt.buildDictMeta()
		if cc.encoding() == encRLE {
			alt.bitWidth = bitWidthFor(len(dict))
			alt.packed = packCodes(codes, alt.bitWidth)
		} else {
			alt.runEnds, alt.runCodes = rleRuns(codes)
		}
		for i, want := range codes {
			if got := alt.CodeAt(i); got != want {
				t.Fatalf("case %d (%s alt): CodeAt(%d) = %d, want %d", ci, alt.EncodingName(), i, got, want)
			}
		}
	}
}

func TestPackRunsMatchesPackCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		d := 1 + rng.Intn(1000)
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(rng.Intn(d))
		}
		bw := bitWidthFor(d)
		dense := packCodes(codes, bw)
		ends, runs := rleRuns(codes)
		fromRuns := packRuns(ends, runs, bw)
		if len(dense) != len(fromRuns) {
			t.Fatalf("trial %d: packed lengths differ: %d != %d", trial, len(dense), len(fromRuns))
		}
		for i := range dense {
			if dense[i] != fromRuns[i] {
				t.Fatalf("trial %d: packed bytes differ at %d", trial, i)
			}
		}
	}
}

func TestGroupByCompressedDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, dense := sealedClone(t, rng, randomTable(rng, rng.Intn(200), 2+rng.Intn(3)))
		ref := dense.Clone().ForceRowPath(true)
		for trial := 0; trial < 4; trial++ {
			cols := randomCols(rng, dense, 1+rng.Intn(3))
			aggs := randomAggs(rng, dense)
			got, err := st.GroupBy(cols, aggs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.GroupBy(cols, aggs)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, got, want,
				fmt.Sprintf("seed %d sealed GroupBy(%v, %v)", seed, cols, aggs))
			col, err := dense.GroupBy(cols, aggs)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, got, col,
				fmt.Sprintf("seed %d sealed-vs-dense GroupBy(%v, %v)", seed, cols, aggs))
		}
	}
}

func TestSelectEqCompressedDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, dense := sealedClone(t, rng, randomTable(rng, rng.Intn(150), 2+rng.Intn(3)))
		ref := dense.Clone().ForceRowPath(true)
		for trial := 0; trial < 8; trial++ {
			cols := randomCols(rng, dense, 1+rng.Intn(2))
			vals := make(value.Tuple, len(cols))
			for i, c := range cols {
				if dense.NumRows() > 0 && rng.Intn(3) > 0 {
					ci := dense.Schema().Index(c)
					vals[i] = dense.Row(rng.Intn(dense.NumRows()))[ci]
				} else {
					vals[i] = eqProbes[rng.Intn(len(eqProbes))]
				}
			}
			got, err := st.SelectEq(cols, vals)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.SelectEq(cols, vals)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, got, want,
				fmt.Sprintf("seed %d sealed SelectEq(%v, %s)", seed, cols, vals))
		}
	}
}

func TestCountDistinctCompressedDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, dense := sealedClone(t, rng, randomTable(rng, rng.Intn(150), 2+rng.Intn(3)))
		ref := dense.Clone().ForceRowPath(true)
		for trial := 0; trial < 4; trial++ {
			cols := randomCols(rng, dense, 1+rng.Intn(3))
			got, err := st.CountDistinct(cols)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.CountDistinct(cols)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d sealed CountDistinct(%v): got %d, want %d", seed, cols, got, want)
			}
		}
	}
}

func TestCubeCompressedDifferential(t *testing.T) {
	aggs := []AggSpec{{Func: Count}, {Func: Sum, Arg: "c0"}, {Func: Avg, Arg: "c1"}}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, dense := sealedClone(t, rng, randomTable(rng, rng.Intn(80), 3))
		ref := dense.Clone().ForceRowPath(true)
		cols := []string{"c0", "c1", "c2"}
		got, err := st.Cube(cols, 0, 3, aggs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Cube(cols, 0, 3, aggs)
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, got, want, fmt.Sprintf("seed %d sealed Cube", seed))
	}
}

// TestStaleCompressedViewInvalidation: per-query state derived from the
// table — the tail's dense views, the cached cross-segment dictionary
// unification — must never serve a table that has since grown. Queries
// between appends and compactions see every row.
func TestStaleCompressedViewInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := randomTable(rng, 120, 3)
	st := segTableFromTable(t, tab, 2)
	cols := []string{"c0"}
	aggs := []AggSpec{{Func: Count}, {Func: Sum, Arg: "c1"}}
	check := func(label string) {
		t.Helper()
		got, err := st.GroupBy(cols, aggs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := readBack(t, st).ForceRowPath(true).GroupBy(cols, aggs)
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, got, want, label)
		if got.NumRows() == 0 {
			t.Fatalf("%s: empty grouped result", label)
		}
	}
	batch := func() []value.Tuple {
		rows := make([]value.Tuple, 40)
		for i := range rows {
			row := make(value.Tuple, 3)
			for c := range row {
				row[c] = randomValue(rng)
			}
			rows[i] = row
		}
		return rows
	}
	check("initial")
	if err := st.AppendRows(batch()); err != nil {
		t.Fatal(err)
	}
	check("post-append")
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	check("post-compact")
	if err := st.AppendRows(batch()); err != nil {
		t.Fatal(err)
	}
	check("post-compact append")
}

func FuzzCompressedKernels(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(3), uint8(1))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, k uint8) {
		rng := rand.New(rand.NewSource(seed))
		comp, tab := sealedClone(t, rng, randomTable(rng, int(n), 2+int(k%3)))
		ref := tab.Clone().ForceRowPath(true)
		cols := randomCols(rng, tab, 1+int(k%2))
		aggs := randomAggs(rng, tab)

		got, err := comp.GroupBy(cols, aggs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.GroupBy(cols, aggs)
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, got, want, "fuzz compressed GroupBy")

		if tab.NumRows() > 0 {
			ci := tab.Schema().Index(cols[0])
			val := tab.Row(rng.Intn(tab.NumRows()))[ci]
			gotS, err := comp.SelectEq(cols[:1], value.Tuple{val})
			if err != nil {
				t.Fatal(err)
			}
			wantS, err := ref.SelectEq(cols[:1], value.Tuple{val})
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, gotS, wantS, "fuzz compressed SelectEq")
		}
	})
}
