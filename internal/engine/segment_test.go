package engine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cape/internal/value"
)

// Segment tests use kind-pure columns: codes identify AppendKey classes,
// so a column mixing Int(1) and Float(1.0) reads back as the class
// representative (documented canonicalization). Kind-pure columns — what
// value.Parse and the dataset generators produce — round-trip exactly,
// which is the byte-identity contract these tests pin.

// typedRandomTable builds a table whose columns each stick to one kind
// (with NULLs mixed in), exercising RLE-friendly low-cardinality columns
// and pack-friendly high-cardinality ones.
func typedRandomTable(rng *rand.Rand, n, width int) *Table {
	sch := make(Schema, width)
	gens := make([]func() value.V, width)
	for i := range sch {
		sch[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: value.Null}
		switch rng.Intn(5) {
		case 0: // low-cardinality ints (long runs, RLE)
			gens[i] = func() value.V { return value.NewInt(int64(rng.Intn(3))) }
		case 1: // high-cardinality ints (bit-packed)
			gens[i] = func() value.V { return value.NewInt(int64(rng.Intn(50))) }
		case 2: // floats, including integral ones and NaN
			gens[i] = func() value.V {
				switch rng.Intn(4) {
				case 0:
					return value.NewFloat(float64(rng.Intn(4))) // integral float
				case 1:
					return value.NewFloat(math.NaN())
				default:
					return value.NewFloat(float64(rng.Intn(6)) + 0.5)
				}
			}
		case 3: // mixed int/float numeric (cross-part Sum kind rules);
			// non-integral floats keep the kinds AppendKey-disjoint so
			// canonicalization never rewrites a value.
			gens[i] = func() value.V {
				if rng.Intn(3) > 0 {
					return value.NewInt(int64(rng.Intn(5)))
				}
				return value.NewFloat(float64(rng.Intn(5)) + 0.25)
			}
		default: // strings
			gens[i] = func() value.V { return value.NewString(fmt.Sprintf("s%d", rng.Intn(5))) }
		}
	}
	t := NewTable(sch)
	for r := 0; r < n; r++ {
		row := make(value.Tuple, width)
		for c := range row {
			if rng.Intn(8) == 0 {
				row[c] = value.NewNull()
			} else {
				row[c] = gens[c]()
			}
		}
		if err := t.Append(row); err != nil {
			panic(err)
		}
	}
	return t
}

// segTableFromTable splits tab's rows into nSegs sealed segments plus a
// tail holding the remainder.
func segTableFromTable(t *testing.T, tab *Table, nSegs int) *SegTable {
	t.Helper()
	st := NewSegTable(tab.Schema())
	rows := tab.Rows()
	n := len(rows)
	cut := 0
	for s := 0; s < nSegs; s++ {
		next := (s + 1) * n / (nSegs + 1)
		w := NewSegmentWriter(tab.Schema())
		if err := w.AppendRows(rows[cut:next]); err != nil {
			t.Fatal(err)
		}
		if err := st.AddSegment(w.Segment()); err != nil {
			t.Fatal(err)
		}
		cut = next
	}
	if err := st.AppendRows(rows[cut:]); err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != n {
		t.Fatalf("segTableFromTable: %d rows, want %d", st.NumRows(), n)
	}
	return st
}

// checkSegTable runs the full operator surface of st against the
// oracle over tab's rows and requires byte-identical results.
func checkSegTable(t *testing.T, rng *rand.Rand, st *SegTable, tab *Table, label string) {
	t.Helper()
	ref := oracleOf(tab)

	// Row materialization.
	var i int
	err := st.ScanRows(0, st.NumRows(), func(row value.Tuple) error {
		want := tab.Row(i)
		for c := range row {
			if !valueIdentical(row[c], want[c]) {
				return fmt.Errorf("row %d col %d: %s != %s", i, c, row[c], want[c])
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("%s: ScanRows: %v", label, err)
	}
	if i != tab.NumRows() {
		t.Fatalf("%s: ScanRows visited %d rows, want %d", label, i, tab.NumRows())
	}

	for trial := 0; trial < 4; trial++ {
		cols := randomCols(rng, tab, 1+rng.Intn(2))
		aggs := randomAggs(rng, tab)
		got, err := st.GroupBy(cols, aggs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.GroupBy(cols, aggs)
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, got, want, fmt.Sprintf("%s GroupBy(%v, %v)", label, cols, aggs))

		vals := make(value.Tuple, len(cols))
		for vi, c := range cols {
			if tab.NumRows() > 0 && rng.Intn(4) > 0 {
				vals[vi] = tab.Row(rng.Intn(tab.NumRows()))[c2i(tab, c)]
			} else {
				vals[vi] = value.NewString("absent")
			}
		}
		gotS, err := st.SelectEq(cols, vals)
		if err != nil {
			t.Fatal(err)
		}
		wantS, err := ref.SelectEq(cols, vals)
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, gotS, wantS, fmt.Sprintf("%s SelectEq(%v, %s)", label, cols, vals))

		gotC, err := st.CountDistinct(cols)
		if err != nil {
			t.Fatal(err)
		}
		wantC, err := ref.CountDistinct(cols)
		if err != nil {
			t.Fatal(err)
		}
		if gotC != wantC {
			t.Fatalf("%s CountDistinct(%v): got %d, want %d", label, cols, gotC, wantC)
		}

		gotD, err := st.DistinctProject(cols)
		if err != nil {
			t.Fatal(err)
		}
		wantD, err := ref.DistinctProject(cols)
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, gotD, wantD, fmt.Sprintf("%s DistinctProject(%v)", label, cols))
	}

	cubeCols := tab.Schema().Names()
	if len(cubeCols) > 3 {
		cubeCols = cubeCols[:3]
	}
	cubeAggs := []AggSpec{{Func: Count}, {Func: Sum, Arg: cubeCols[0]}}
	gotCube, err := st.Cube(cubeCols, 0, len(cubeCols), cubeAggs)
	if err != nil {
		t.Fatal(err)
	}
	wantCube, err := ref.Cube(cubeCols, 0, len(cubeCols), cubeAggs)
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, gotCube, wantCube, label+" Cube")
}

func c2i(t *Table, col string) int { return t.Schema().Index(col) }

func TestSegTableDifferential(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := typedRandomTable(rng, rng.Intn(250), 2+rng.Intn(3))
		for _, nSegs := range []int{0, 1, 3} {
			st := segTableFromTable(t, tab, nSegs)
			checkSegTable(t, rng, st, tab,
				fmt.Sprintf("seed %d segs %d", seed, nSegs))
		}
	}
}

func TestSegTableAppendCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := typedRandomTable(rng, 150, 3)
	rows := tab.Rows()

	st := NewSegTable(tab.Schema())
	w := NewSegmentWriter(tab.Schema())
	if err := w.AppendRows(rows[:60]); err != nil {
		t.Fatal(err)
	}
	if err := st.AddSegment(w.Segment()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendRows(rows[60:100]); err != nil {
		t.Fatal(err)
	}

	// Segments cannot land behind a non-empty tail (row order).
	w2 := NewSegmentWriter(tab.Schema())
	if err := w2.AppendRows(rows[100:110]); err != nil {
		t.Fatal(err)
	}
	if err := st.AddSegment(w2.Segment()); err == nil {
		t.Fatal("AddSegment behind a non-empty tail must fail")
	}

	epoch := st.Epoch()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() == epoch {
		t.Fatal("Compact must bump the epoch")
	}
	if st.TailRows() != 0 || st.NumSegments() != 2 {
		t.Fatalf("after Compact: %d tail rows, %d segments", st.TailRows(), st.NumSegments())
	}
	if err := st.AddSegment(w2.Segment()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendRows(rows[110:]); err != nil {
		t.Fatal(err)
	}

	sub := NewTable(tab.Schema())
	if err := sub.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	checkSegTable(t, rng, st, sub, "append+compact")

	// Seal the remaining tail, then verify compacting an empty tail is
	// a no-op.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.TailRows() != 0 || st.NumSegments() != 4 {
		t.Fatalf("after final Compact: %d tail rows, %d segments", st.TailRows(), st.NumSegments())
	}
	epoch = st.Epoch()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.NumSegments() != 4 || st.Epoch() != epoch {
		t.Fatal("empty Compact must not add segments or bump the epoch")
	}
}

func TestSegmentFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := typedRandomTable(rng, rng.Intn(200), 2+rng.Intn(3))
		w := NewSegmentWriter(tab.Schema())
		if err := w.AppendRows(tab.Rows()); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("seg%d.seg", seed))
		if err := w.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		st, err := OpenSegTable(path)
		if err != nil {
			t.Fatal(err)
		}
		checkSegTable(t, rng, st, tab, fmt.Sprintf("file seed %d", seed))
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentCorruptionRejected flips bytes all over a segment file and
// requires OpenSegment to reject every mutation — the format has no
// unchecksummed bytes.
func TestSegmentCorruptionRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := typedRandomTable(rng, 80, 3)
	w := NewSegmentWriter(tab.Schema())
	if err := w.AppendRows(tab.Rows()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.seg")
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openSegmentBytes(orig); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	step := 1
	if len(orig) > 4096 {
		step = len(orig) / 4096
	}
	for off := 0; off < len(orig); off += step {
		mut := make([]byte, len(orig))
		copy(mut, orig)
		mut[off] ^= 0x40
		if seg, err := openSegmentBytes(mut); err == nil {
			seg.Close()
			t.Fatalf("byte flip at offset %d/%d accepted", off, len(orig))
		}
	}
	// Truncations must be rejected too.
	for _, cut := range []int{1, 8, len(orig) / 2, len(orig) - 1} {
		if seg, err := openSegmentBytes(orig[:len(orig)-cut]); err == nil {
			seg.Close()
			t.Fatalf("truncation by %d bytes accepted", cut)
		}
	}
}

func TestSegmentVersionRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := typedRandomTable(rng, 20, 2)
	w := NewSegmentWriter(tab.Schema())
	if err := w.AppendRows(tab.Rows()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.seg")
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[7] = '2' // future format magic "CAPESEG2"
	if _, err := openSegmentBytes(data); err == nil {
		t.Fatal("future-version magic accepted")
	}
}

// TestSegmentDictCanonicalization pins the documented caveat: mixed-kind
// AppendKey-equal values read back as the class representative, equal
// under AppendKey though not bitwise.
func TestSegmentDictCanonicalization(t *testing.T) {
	sch := Schema{{Name: "x", Kind: value.Null}}
	w := NewSegmentWriter(sch)
	rows := []value.Tuple{
		{value.NewFloat(1.0)},
		{value.NewInt(1)},
	}
	if err := w.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	seg := w.Segment()
	got := seg.AppendRowAt(1, nil)[0]
	if got.Kind() != value.Float {
		t.Fatalf("row 1 reads back as %s; want the class representative Float(1.0)", got)
	}
	if value.Compare(got, rows[1][0]) != 0 {
		t.Fatalf("representative %s not Compare-equal to original %s", got, rows[1][0])
	}
}

// TestSegTableCrossPartMixedSum pins the cross-part Sum kind rule: a
// float row in ANY part makes the oracle's Sum return Float(sumF), so
// int runs in float-free parts must still fold into sumF (hasFloat is a
// per-part property, anyFloat a global one). Before the fix, the
// all-int part's contribution was dropped: sum 1.5 instead of 31.5.
func TestSegTableCrossPartMixedSum(t *testing.T) {
	sch := Schema{{Name: "g", Kind: value.Null}, {Name: "v", Kind: value.Null}}
	intRows := []value.Tuple{
		{value.NewString("a"), value.NewInt(10)},
		{value.NewString("a"), value.NewInt(20)},
	}
	floatRows := []value.Tuple{
		{value.NewString("a"), value.NewFloat(1.5)},
	}
	layouts := []struct {
		name      string
		seg, tail []value.Tuple
	}{
		{"ints sealed, float in tail", intRows, floatRows},
		{"float sealed, ints in tail", floatRows, intRows},
	}
	aggs := []AggSpec{{Func: Sum, Arg: "v"}, {Func: Avg, Arg: "v"}}
	for _, l := range layouts {
		st := NewSegTable(sch)
		w := NewSegmentWriter(sch)
		if err := w.AppendRows(l.seg); err != nil {
			t.Fatal(err)
		}
		if err := st.AddSegment(w.Segment()); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendRows(l.tail); err != nil {
			t.Fatal(err)
		}
		ref := NewTable(sch)
		if err := ref.AppendRows(append(append([]value.Tuple{}, l.seg...), l.tail...)); err != nil {
			t.Fatal(err)
		}
		got, err := st.GroupBy([]string{"g"}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleOf(ref).GroupBy([]string{"g"}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, got, want, l.name)
		sum := got.Row(0)[1]
		if sum.Kind() != value.Float || sum.Float() != 31.5 {
			t.Fatalf("%s: sum = %s, want Float(31.5)", l.name, sum)
		}
	}
}

// TestDecodeSegColRejectsBadRunEnds crafts an RLE block whose run ends
// are non-monotonic — CRC-consistent corruption the checksums cannot
// catch — and requires decodeSegCol to reject it rather than let the run
// cursor or CodeAt index out of range later.
func TestDecodeSegColRejectsBadRunEnds(t *testing.T) {
	dict := make([]value.V, 16) // large dict ⇒ encodeBlock picks RLE
	for i := range dict {
		dict[i] = value.NewInt(int64(i))
	}
	for _, bad := range [][]int32{
		{60, 50, 100}, // decreasing
		{50, 50, 100}, // repeated
		{0, 50, 100},  // zero-length first run
		{-4, 50, 100}, // negative
	} {
		cb := segColBuilder{dict: dict, runEnds: bad, runCodes: []int32{0, 1, 2}}
		blk := cb.encodeBlock(100)
		if _, err := decodeSegCol(blk, 100); err == nil {
			t.Fatalf("run ends %v accepted", bad)
		}
	}
	good := segColBuilder{dict: dict, runEnds: []int32{50, 60, 100}, runCodes: []int32{0, 1, 2}}
	if _, err := decodeSegCol(good.encodeBlock(100), 100); err != nil {
		t.Fatalf("well-formed block rejected: %v", err)
	}
}

// TestSegmentCraftedOffsetsRejected patches a footer entry to a huge
// offset whose off+length wraps around uint64, recomputes the footer CRC
// so every checksum still verifies, and requires open to fail cleanly
// instead of panicking on an out-of-range slice.
func TestSegmentCraftedOffsetsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tab := typedRandomTable(rng, 40, 2)
	w := NewSegmentWriter(tab.Schema())
	if err := w.AppendRows(tab.Rows()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "o.seg")
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const tailLen = 24
	footerOff := binary.LittleEndian.Uint64(data[len(data)-16:])
	ents := data[footerOff : len(data)-tailLen]
	binary.LittleEndian.PutUint64(ents[0:], ^uint64(0)) // off+length wraps to 1
	binary.LittleEndian.PutUint64(ents[8:], 2)
	binary.LittleEndian.PutUint32(data[len(data)-20:], crc32.Checksum(ents, segCRC))
	if seg, err := openSegmentBytes(data); err == nil {
		seg.Close()
		t.Fatal("wrapping column offset accepted")
	}
}

// TestSegTableMinMaxNaN: Min/Max over a NaN-containing column must match
// the oracle sequentially and with a pool attached, where the morsel
// partial states merge: NaN is the largest number, so every group's Max
// is NaN and its Min the smallest non-NaN value.
func TestSegTableMinMaxNaN(t *testing.T) {
	setMorselTarget(t, 2)
	sch := Schema{{Name: "g", Kind: value.Null}, {Name: "v", Kind: value.Null}}
	tab := NewTable(sch)
	// In two-row morsels, [5.5 4.5] then [NaN 0.5]: the merged minimum
	// must be 0.5 and the merged maximum NaN, as in the row-order fold.
	rows := []value.Tuple{
		{value.NewString("a"), value.NewFloat(5.5)},
		{value.NewString("a"), value.NewFloat(4.5)},
		{value.NewString("a"), value.NewFloat(math.NaN())},
		{value.NewString("a"), value.NewFloat(0.5)},
		{value.NewString("b"), value.NewFloat(1.5)},
		{value.NewString("b"), value.NewFloat(3.5)},
		{value.NewString("b"), value.NewFloat(math.NaN())},
		{value.NewString("b"), value.NewFloat(9.5)},
	}
	for rep := 0; rep < 4; rep++ { // enough rows per group for morsels
		if err := tab.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
	}
	ref := oracleOf(tab)
	aggs := []AggSpec{{Func: Min, Arg: "v"}, {Func: Max, Arg: "v"}}
	want, err := ref.GroupBy([]string{"g"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for ri, wantMin := range []float64{0.5, 1.5} {
		row := want.Row(ri)
		if row[1].Float() != wantMin || !math.IsNaN(row[2].Float()) {
			t.Fatalf("oracle group %v: Min %v Max %v, want %v and NaN", row[0], row[1], row[2], wantMin)
		}
	}
	for _, width := range []int{1, 4} {
		st := segTableFromTable(t, tab, 1)
		st.SetPool(NewPool(width))
		dense := tab.Clone()
		dense.SetPool(NewPool(width))
		for _, rel := range []Relation{st, dense} {
			got, err := rel.GroupBy([]string{"g"}, aggs)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, got, want, fmt.Sprintf("NaN Min/Max %T width %d", rel, width))
		}
	}
}
