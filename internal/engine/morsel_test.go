package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"cape/internal/value"
)

// setMorselTarget shrinks the morsel size so small test tables split
// into many morsels, restoring it afterwards.
func setMorselTarget(t *testing.T, target int32) {
	t.Helper()
	orig := morselTargetRows
	morselTargetRows = target
	t.Cleanup(func() { morselTargetRows = orig })
}

// packedCol builds a deliberately bit-packed column (never RLE), the
// encoding whose block-decode paths these tests pin.
func packedCol(codes []int32, dict []value.V) *CompressedCol {
	cc := &CompressedCol{n: len(codes), dict: dict}
	cc.buildDictMeta()
	cc.bitWidth = bitWidthFor(len(dict))
	cc.packed = packCodes(codes, cc.bitWidth)
	return cc
}

func intDict(n int) []value.V {
	dict := make([]value.V, n)
	for i := range dict {
		dict[i] = value.NewInt(int64(i))
	}
	return dict
}

// TestMorselGroupByDeterminism is the merge-order property test: over
// random segment splits, worker counts, and mixed int/float columns,
// the morsel-parallel GroupBy must be byte-identical to the sequential
// kernel and to the oracle — group order, key values,
// aggregate results, and float summation order included. Aggregates
// whose partials do not merge exactly (Avg, float Sum) must transparently
// take the sequential kernel and still agree.
func TestMorselGroupByDeterminism(t *testing.T) {
	setMorselTarget(t, 16)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := typedRandomTable(rng, 50+rng.Intn(250), 2+rng.Intn(3))
		ref := oracleOf(tab)
		for _, nSegs := range []int{1, 3} {
			st := segTableFromTable(t, tab, nSegs)
			for trial := 0; trial < 3; trial++ {
				cols := randomCols(rng, tab, 1+rng.Intn(2))
				aggs := randomAggs(rng, tab)
				label := fmt.Sprintf("seed %d segs %d GroupBy(%v, %v)", seed, nSegs, cols, aggs)

				st.SetPool(nil)
				seq, err := st.GroupBy(cols, aggs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.GroupBy(cols, aggs)
				if err != nil {
					t.Fatal(err)
				}
				tablesIdentical(t, seq, want, label+" [sequential]")

				for _, workers := range []int{2, 3, 8} {
					st.SetPool(NewPool(workers))
					got, err := st.GroupBy(cols, aggs)
					if err != nil {
						t.Fatal(err)
					}
					tablesIdentical(t, got, want, fmt.Sprintf("%s [workers %d]", label, workers))
				}
				st.SetPool(nil)
			}
		}
	}
}

// TestSegTablePoolDifferential runs the full operator surface (GroupBy,
// SelectEq, CountDistinct, DistinctProject, Cube) of a pool-attached
// SegTable against the oracle — the same reference the
// sequential differential test uses, now with morsel, per-part, and
// per-cube-mask fan-out active.
func TestSegTablePoolDifferential(t *testing.T) {
	setMorselTarget(t, 16)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		tab := typedRandomTable(rng, rng.Intn(250), 2+rng.Intn(3))
		for _, workers := range []int{2, 8} {
			st := segTableFromTable(t, tab, 3)
			st.SetPool(NewPool(workers))
			checkSegTable(t, rng, st, tab, fmt.Sprintf("seed %d workers %d", seed, workers))
		}
	}
}

// TestSplitMorsels: morsels must partition the parts exactly — in
// order, contiguous, non-empty — and RLE split points must land on run
// ends of the leading key column.
func TestSplitMorsels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Long runs (~50 rows each, alternating codes) so the encoder picks RLE.
	runVals := make([]int32, 40)
	for i := range runVals {
		runVals[i] = int32(rng.Intn(2))
		if i > 0 && runVals[i] == runVals[i-1] {
			runVals[i] = runVals[i-1] + 1
		}
	}
	codes := make([]int32, 2000)
	for i := range codes {
		codes[i] = runVals[i/50]
	}
	cc := compressCodes(codes, intDict(3))
	if cc.encoding() != encRLE {
		t.Fatalf("expected RLE, got %s", cc.EncodingName())
	}
	parts := []*compPart{
		{n: 2000, keys: []*CompressedCol{cc}},
		{n: 10, keys: []*CompressedCol{compressCodes(make([]int32, 10), intDict(1))}},
		{n: 0, keys: []*CompressedCol{compressCodes(nil, nil)}},
	}
	morsels := splitMorsels(parts, 64)

	next := map[int32]int32{0: 0, 1: 0}
	for _, m := range morsels {
		if m.lo >= m.hi {
			t.Fatalf("empty morsel %+v", m)
		}
		if m.lo != next[m.part] {
			t.Fatalf("morsel %+v does not continue part coverage (want lo %d)", m, next[m.part])
		}
		next[m.part] = m.hi
		if m.part == 0 && m.hi != 2000 {
			// Interior split of the RLE part: must sit on a run end.
			found := false
			for _, e := range cc.runEnds {
				if e == m.hi {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("split at %d is not an RLE run end", m.hi)
			}
		}
	}
	if next[0] != 2000 || next[1] != 10 {
		t.Fatalf("parts not fully covered: %v", next)
	}
	if len(morsels) < 10 {
		t.Fatalf("expected many morsels over 2000 rows at target 64, got %d", len(morsels))
	}
}

// TestMorselMergeable: Avg always declines; Sum declines exactly when a
// part's argument column holds floats; Count/Min/Max merge.
func TestMorselMergeable(t *testing.T) {
	intCol := compressCodes([]int32{0, 1, 0}, intDict(2))
	fltCol := compressCodes([]int32{0, 1, 0}, []value.V{value.NewFloat(0.5), value.NewFloat(1.5)})
	mk := func(f AggFunc, cc *CompressedCol) ([]*compPart, []aggCol) {
		return []*compPart{{n: 3, aggs: []*CompressedCol{cc}}},
			[]aggCol{{spec: AggSpec{Func: f, Arg: "a"}}}
	}
	cases := []struct {
		name string
		f    AggFunc
		cc   *CompressedCol
		want bool
	}{
		{"count", Count, nil, true},
		{"sum-int", Sum, intCol, true},
		{"sum-float", Sum, fltCol, false},
		{"avg-int", Avg, intCol, false},
		{"min-float", Min, fltCol, true},
		{"max-int", Max, intCol, true},
	}
	for _, c := range cases {
		parts, aCols := mk(c.f, c.cc)
		if got := morselMergeable(parts, aCols); got != c.want {
			t.Errorf("%s: morselMergeable = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestUnpackBlockMatchesCodeAt: the batch block decode must agree with
// the per-row unpack for every row, at every bit width the dictionary
// sizes produce, including the final partial block.
func TestUnpackBlockMatchesCodeAt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dictSize := range []int{2, 3, 17, 300, 5000} {
		for _, n := range []int{1, 1023, 1024, 1025, 5000} {
			codes := make([]int32, n)
			for i := range codes {
				codes[i] = int32(rng.Intn(dictSize))
			}
			cc := packedCol(codes, intDict(dictSize))
			buf := make([]int32, decodeBlockLen)
			for b := 0; b<<decodeBlockShift < n; b++ {
				blk := buf[:cc.blockLen(b)]
				cc.unpackBlock(b, blk)
				base := b << decodeBlockShift
				for i, got := range blk {
					if want := codes[base+i]; got != want {
						t.Fatalf("dict %d n %d: block %d row %d: %d != %d",
							dictSize, n, b, base+i, got, want)
					}
				}
			}
		}
	}
}

// TestRunCurMaximalRunsAcrossBlocks: the block-buffered PACK cursor
// must still report maximal runs — including runs straddling decode
// block boundaries — so the run walk folds each run once.
func TestRunCurMaximalRunsAcrossBlocks(t *testing.T) {
	n := 3 * decodeBlockLen
	codes := make([]int32, n)
	rng := rand.New(rand.NewSource(13))
	for i := range codes {
		codes[i] = int32(rng.Intn(40))
	}
	// A run crossing the first block boundary, another ending exactly on
	// the second, and a run covering the whole tail.
	for i := decodeBlockLen - 100; i < decodeBlockLen+100; i++ {
		codes[i] = 41
	}
	for i := 2*decodeBlockLen - 50; i < 2*decodeBlockLen; i++ {
		codes[i] = 42
	}
	for i := n - 300; i < n; i++ {
		codes[i] = 43
	}
	cc := packedCol(codes, intDict(44))

	var cur runCur
	cur.init(cc)
	for pos := int32(0); pos < int32(n); {
		cur.seek(pos)
		code, end := cur.code, cur.end
		if end <= pos {
			t.Fatalf("empty run at %d", pos)
		}
		for i := pos; i < end; i++ {
			if codes[i] != code {
				t.Fatalf("run [%d, %d) code %d: row %d has %d", pos, end, code, i, codes[i])
			}
		}
		if end < int32(n) && codes[end] == code {
			t.Fatalf("run [%d, %d) is not maximal: row %d continues code %d", pos, end, end, code)
		}
		pos = end
	}
}

// TestDecodedBlockCacheEviction: with far more blocks than cache slots,
// repeated strided cursor scans must keep returning correct codes (the
// LRU only ever drops references, never correctness).
func TestDecodedBlockCacheEviction(t *testing.T) {
	n := (decodeCacheBlocks + 8) * decodeBlockLen
	codes := make([]int32, n)
	rng := rand.New(rand.NewSource(17))
	for i := range codes {
		codes[i] = int32(rng.Intn(500))
	}
	cc := packedCol(codes, intDict(500))
	for pass := 0; pass < 2; pass++ {
		var cur runCur
		cur.init(cc)
		for pos := int32(0); pos < int32(n); pos = cur.end {
			cur.seek(pos)
			if codes[pos] != cur.code {
				t.Fatalf("pass %d: row %d: code %d, want %d", pass, pos, cur.code, codes[pos])
			}
		}
		if len(cc.blockMap) > decodeCacheBlocks {
			t.Fatalf("cache holds %d blocks, cap %d", len(cc.blockMap), decodeCacheBlocks)
		}
	}
}

// selectEqRuns is the reference selectEqSpans is pinned to: walk the
// merged key runs of one part and emit the half-open row ranges where
// every probed column carries its wanted code.
func selectEqRuns(p *compPart, want []int32, emit func(lo, hi int32)) {
	kcur := make([]runCur, len(want))
	for k := range kcur {
		kcur[k].init(p.keys[k])
	}
	n := int32(p.n)
	for pos := int32(0); pos < n; {
		segEnd := n
		match := true
		for k := range kcur {
			kcur[k].seek(pos)
			if kcur[k].end < segEnd {
				segEnd = kcur[k].end
			}
			if kcur[k].code != want[k] {
				match = false
			}
		}
		if match {
			emit(pos, segEnd)
		}
		pos = segEnd
	}
}

// TestSelectEqSpansDifferential: for every single code and code pair,
// the span-index path must emit exactly the ranges the merged-run scan
// emits, in the same order with the same boundaries.
func TestSelectEqSpansDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		n := 200 + rng.Intn(2000)
		d1, d2 := 2+rng.Intn(6), 2+rng.Intn(40)
		// Runs of ~17 rows in c1 so RLE and PACK both occur across trials.
		runs := make([]int32, n/17+1)
		for i := range runs {
			runs[i] = int32(rng.Intn(d1))
		}
		c1 := make([]int32, n)
		c2 := make([]int32, n)
		for i := range c1 {
			c1[i] = runs[i/17]
			c2[i] = int32(rng.Intn(d2))
		}
		p := &compPart{n: n, keys: []*CompressedCol{
			compressCodes(c1, intDict(d1)),
			compressCodes(c2, intDict(d2)),
		}}
		type span struct{ lo, hi int32 }
		for w1 := int32(0); w1 < int32(d1); w1++ {
			for w2 := int32(0); w2 < int32(d2); w2++ {
				want := []span{}
				selectEqRuns(p, []int32{w1, w2}, func(lo, hi int32) {
					want = append(want, span{lo, hi})
				})
				got := []span{}
				selectEqSpans(p, []int32{w1, w2}, func(lo, hi int32) {
					got = append(got, span{lo, hi})
				})
				if len(got) != len(want) {
					t.Fatalf("trial %d probe (%d,%d): %d ranges, want %d", trial, w1, w2, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d probe (%d,%d) range %d: %+v != %+v", trial, w1, w2, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestIntersectSpans covers the galloping intersection directly.
func TestIntersectSpans(t *testing.T) {
	type span struct{ lo, hi int32 }
	collect := func(lists [][]int32) []span {
		var out []span
		intersectSpans(lists, func(lo, hi int32) { out = append(out, span{lo, hi}) })
		return out
	}
	cases := []struct {
		name  string
		lists [][]int32
		want  []span
	}{
		{"single", [][]int32{{0, 5, 9, 12}}, []span{{0, 5}, {9, 12}}},
		{"disjoint", [][]int32{{0, 5}, {5, 9}}, nil},
		{"nested", [][]int32{{0, 100}, {10, 20, 30, 40}}, []span{{10, 20}, {30, 40}}},
		{"partial", [][]int32{{0, 15}, {10, 20}}, []span{{10, 15}}},
		{"three", [][]int32{{0, 50}, {10, 40}, {20, 60}}, []span{{20, 40}}},
		{"empty-list", [][]int32{{0, 50}, {}}, nil},
		{"splinters", [][]int32{{0, 2, 4, 6, 8, 10}, {1, 9}}, []span{{1, 2}, {4, 6}, {8, 9}}},
	}
	for _, c := range cases {
		got := collect(c.lists)
		if len(got) != len(c.want) {
			t.Fatalf("%s: %v, want %v", c.name, got, c.want)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("%s: %v, want %v", c.name, got, c.want)
			}
		}
	}
}
