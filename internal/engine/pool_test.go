package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"cape/internal/value"
)

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

// TestSegTablePoolDifferential runs the full operator surface (GroupBy,
// SelectEq, CountDistinct, DistinctProject, Cube) of a pool-attached
// SegTable against the oracle — the same reference the
// sequential differential test uses, now with per-part and
// per-cube-mask fan-out active.
func TestSegTablePoolDifferential(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		tab := typedRandomTable(rng, rng.Intn(250), 2+rng.Intn(3))
		for _, workers := range []int{2, 8} {
			st, logical := segTableOf(t, tab, 3)
			st.AttachPool(NewPool(workers))
			checkSegTable(t, rng, st, logical, fmt.Sprintf("seed %d workers %d", seed, workers))
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
				cc.unpackCodes(b<<decodeBlockShift, blk)
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

// TestAttachPoolOverlappingRuns: runs over one relation attach and
// detach their pools independently, so one run ending leaves the
// kernels a pool while another run still holds one, and only the last
// detach leaves the relation without.
func TestAttachPoolOverlappingRuns(t *testing.T) {
	for _, rel := range []interface {
		AttachPool(*Pool) (detach func())
		queryPool() *Pool
	}{NewTable(Schema{{Name: "a", Kind: value.Int}}), &SegTable{}} {
		a, b := NewPool(2), NewPool(3)
		detachA := rel.AttachPool(a)
		detachB := rel.AttachPool(b)
		detachA()
		if got := rel.queryPool(); got != b {
			t.Fatalf("%T: after detaching A the kernels use %p, want B's pool %p", rel, got, b)
		}
		detachA() // idempotent: does not take B's attachment
		if got := rel.queryPool(); got != b {
			t.Fatalf("%T: a second detach of A left %p, want B's pool %p", rel, got, b)
		}
		detachB()
		if got := rel.queryPool(); got != nil {
			t.Fatalf("%T: every run detached, yet the relation carries %p", rel, got)
		}

		detachA = rel.AttachPool(a)
		detachB = rel.AttachPool(b)
		detachB()
		if got := rel.queryPool(); got != a {
			t.Fatalf("%T: after detaching B the kernels use %p, want A's pool %p", rel, got, a)
		}
		detachA()
		if got := rel.queryPool(); got != nil {
			t.Fatalf("%T: every run detached, yet the relation carries %p", rel, got)
		}
	}
}
