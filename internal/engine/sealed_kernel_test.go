package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cape/internal/value"
)

// sealedKeyCols names the key columns of sealedKernelTable with the
// dictionary size each draws from: bit-packed at aligned widths (1, 2,
// 4, 8) and straddling ones (3, 5, 9), plus r, whose long runs seal to
// RLE.
var sealedKeyCols = []struct {
	name  string
	dict  int
	width uint32 // sealed bit width; 0 for the RLE column
}{
	{"w1", 2, 1}, {"w2", 4, 2}, {"w3", 7, 3}, {"w4", 16, 4},
	{"w5", 30, 5}, {"w8", 200, 8}, {"w9", 300, 9}, {"r", 12, 0},
}

// sealedKernelTable builds two sealed segments of segRows rows and a
// tail of tailRows: the key columns of sealedKeyCols, an Int column v
// and a Float column f (each with NULLs). The two segments start their
// packed columns on different values, so they number their dictionaries
// differently; the tail adds one value per key column that no segment
// holds. It returns the table and the logical rows for the oracle.
func sealedKernelTable(t *testing.T, rng *rand.Rand, segRows, tailRows int) (*SegTable, genTable) {
	t.Helper()
	sch := Schema{}
	for _, kc := range sealedKeyCols {
		sch = append(sch, Column{Name: kc.name, Kind: value.Null})
	}
	sch = append(sch, Column{Name: "v", Kind: value.Null}, Column{Name: "f", Kind: value.Null})
	keyVal := func(k, i int) value.V {
		if k%2 == 0 {
			return value.NewInt(int64(i))
		}
		return value.NewString(fmt.Sprintf("%s-%d", sealedKeyCols[k].name, i))
	}
	// row draws row r of segment s (s = 2: the tail). A segment's first
	// row holds value 0 in segment 0 and the last value in segment 1, so
	// their dictionaries never start alike.
	row := func(r, s int) value.Tuple {
		out := make(value.Tuple, 0, len(sch))
		extra := s / 2
		for k, kc := range sealedKeyCols {
			i := rng.Intn(kc.dict + extra)
			switch {
			case kc.width == 0:
				i = (r / 500) % kc.dict
			case r%segRows == 0 && s < 2:
				i = s * (kc.dict - 1)
			}
			out = append(out, keyVal(k, i))
		}
		v, f := value.NewInt(int64(rng.Intn(1000))-300), value.NewFloat(rng.Float64()*100)
		if rng.Intn(20) == 0 {
			v = value.NewNull()
		}
		if rng.Intn(20) == 0 {
			f = value.NewNull()
		}
		return append(out, v, f)
	}
	st := NewSegTable(sch)
	var logical []value.Tuple
	for s := 0; s < 2; s++ {
		seg := make([]value.Tuple, segRows)
		for r := range seg {
			seg[r] = row(s*segRows+r, s)
		}
		w := NewSegmentWriter(sch)
		if err := w.AppendRows(seg); err != nil {
			t.Fatal(err)
		}
		if err := st.AddSegment(w.Segment()); err != nil {
			t.Fatal(err)
		}
		logical = append(logical, canonicalRows(seg)...)
	}
	tail := make([]value.Tuple, tailRows)
	for r := range tail {
		tail[r] = row(2*segRows+r, 2)
	}
	if err := st.AppendRows(tail); err != nil {
		t.Fatal(err)
	}
	logical = append(logical, tail...)

	for k, kc := range sealedKeyCols {
		for si, seg := range st.segs {
			cc := seg.Col(k)
			if kc.width == 0 {
				if cc.EncodingName() != "rle" {
					t.Fatalf("segment %d column %s is %s, want rle", si, kc.name, cc.EncodingName())
				}
			} else if cc.EncodingName() != "bitpack" || cc.bitWidth != kc.width {
				t.Fatalf("segment %d column %s is %s/%d, want bitpack/%d",
					si, kc.name, cc.EncodingName(), cc.bitWidth, kc.width)
			}
		}
		if kc.width != 0 && st.colUnify(k).segXl[1] == nil {
			t.Fatalf("column %s: segment 1 shares segment 0's dictionary numbering", kc.name)
		}
	}
	return st, newGenTable(sch, logical)
}

// TestSealedKernelDifferential pins the group-by kernel's sealed
// flat-mode ranges — segments of at least flatScanMinRows rows whose
// packed and RLE key columns translate through cross-segment
// dictionaries — to the oracle: count-only groupings, and groupings
// with Sum/Avg/Min/Max so the sealed aggregate folds run too.
func TestSealedKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	st, logical := sealedKernelTable(t, rng, 9000, 700)
	ref := logical.oracle()
	dense := logical.Clone()

	var keySets [][]string
	for i, a := range sealedKeyCols {
		keySets = append(keySets, []string{a.name})
		for _, j := range []int{i + 1, i + 3} {
			if j < len(sealedKeyCols) {
				keySets = append(keySets, []string{a.name, sealedKeyCols[j].name})
			}
		}
	}
	keySets = append(keySets,
		[]string{"w1", "w2", "w4"}, []string{"w3", "w5", "r"}, []string{"w1", "w3", "w8"},
		[]string{"w9", "w2", "w1"}, []string{"w4", "w2", "w1", "w3"},
		[]string{"r", "w1", "w2", "w3"}, []string{"w5", "w4", "w3", "w2", "w1"},
		[]string{"w9", "w8", "w5"}) // too many combinations to flatten: hash mode
	aggSets := [][]AggSpec{
		{{Func: Count}},
		{{Func: Count}, {Func: Sum, Arg: "v"}, {Func: Min, Arg: "v"}, {Func: Max, Arg: "f"}},
		{{Func: Count, Arg: "v"}, {Func: Sum, Arg: "f"}, {Func: Avg, Arg: "v"}, {Func: Min, Arg: "w9"}},
	}
	for _, keys := range keySets {
		for _, aggs := range aggSets {
			q := fmt.Sprintf("GroupBy(%s, %v)", strings.Join(keys, ","), aggs)
			want, err := ref.GroupBy(keys, aggs)
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range []Relation{st, dense} {
				got, err := rel.GroupBy(keys, aggs)
				if err != nil {
					t.Fatal(err)
				}
				tablesIdentical(t, got, want, fmt.Sprintf("%T %s", rel, q))
			}
		}
	}
}

// packedKeyCol packs n random codes at the given width: codes below
// 2^width (2^31 at width 32, as codes are int32), drawn from seed.
func packedKeyCol(seed int64, width uint32, n int) (*CompressedCol, []int32) {
	rng := rand.New(rand.NewSource(seed))
	limit := int64(1)<<min(width, 31) - 1
	codes := make([]int32, n)
	for i := range codes {
		codes[i] = int32(rng.Int63() & limit)
	}
	return &CompressedCol{n: n, bitWidth: width, packed: packCodes(codes, width)}, codes
}

// checkPackedKeys checks rows [lo, lo+n) of cc, packed from codes, two
// ways. decodeRange must return the codes. At widths up to 16, where a
// dictionary-sized key table fits, the flat kernel's per-column pass —
// cc, then a dense column of 5 codes, adding into one key per row — must
// give the Horner key of the two columns' global codes: the packed
// codes are translated through a permutation xl, as a segment's
// dictionary is.
func checkPackedKeys(t *testing.T, cc *CompressedCol, codes []int32, lo, n int) {
	t.Helper()
	label := fmt.Sprintf("width %d rows [%d, %d)", cc.bitWidth, lo, lo+n)
	got := make([]int32, n)
	cc.decodeRange(int32(lo), int32(lo+n), got)
	for i, c := range got {
		if want := codes[lo+i]; c != want {
			t.Fatalf("%s: decodeRange row %d = %d, want %d", label, lo+i, c, want)
		}
	}
	if cc.bitWidth > 16 {
		return
	}
	const dimB = 5
	d := 1 << cc.bitWidth
	xl := rand.New(rand.NewSource(int64(d))).Perm(d)
	tblA := make([]int32, d)
	for c, g := range xl {
		tblA[c] = int32(g) * dimB
	}
	colB := make([]int32, len(codes))
	for i := range colB {
		colB[i] = int32(i * 7 % dimB)
	}
	tblB := []int32{0, 1, 2, 3, 4}
	keys := got // any garbage: the kernel clears a chunk's keys first
	clear(keys)
	cc.addKeys(int32(lo), tblA, keys)
	(&CompressedCol{n: len(colB), dense: colB}).addKeys(int32(lo), tblB, keys)
	for i, key := range keys {
		if want := int32(xl[codes[lo+i]])*dimB + colB[lo+i]; key != want {
			t.Fatalf("%s: key of row %d = %d, want %d", label, lo+i, key, want)
		}
	}
}

// TestPackedKeysExact runs checkPackedKeys at every width 1–32 and every
// start offset mod 64, over ranges from one code to ones that cross
// several words and 1024-code decode blocks.
func TestPackedKeysExact(t *testing.T) {
	for width := uint32(1); width <= 32; width++ {
		cc, codes := packedKeyCol(int64(width), width, 5000)
		for off := 0; off < 64; off++ {
			for i, n := range []int{1, 2, 63, 64, 65, 700, 2100} {
				lo := off + 64*((int(width)+off+i)%20)
				checkPackedKeys(t, cc, codes, lo, n)
			}
		}
		checkPackedKeys(t, cc, codes, 0, len(codes))
		checkPackedKeys(t, cc, codes, len(codes)-1, 1)
	}
}

// FuzzPackedKeys runs checkPackedKeys on fuzzer-chosen columns: seed
// draws the codes, width picks 1–32, lo and n the range.
func FuzzPackedKeys(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(1000), uint16(100))
	f.Add(int64(2), uint8(4), uint16(60), uint16(2000))
	f.Add(int64(3), uint8(31), uint16(1023), uint16(3))
	f.Add(int64(4), uint8(8), uint16(0), uint16(4096))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, lo, n uint16) {
		w := uint32(width%32) + 1
		cc, codes := packedKeyCol(seed, w, int(lo)+int(n)+int(seed&63))
		checkPackedKeys(t, cc, codes, int(lo), int(n))
	})
}
