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

// TestSegTablePoolDifferential runs the operator surface (GroupBy,
// CountDistinct, GroupBy without aggregates, Cube) of a SegTable
// against the oracle — the same reference the sequential differential
// test uses — with Cube's masks fanned across pools of width 1 and 4.
func TestSegTablePoolDifferential(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		tab := typedRandomTable(rng, rng.Intn(250), 2+rng.Intn(3))
		for _, workers := range []int{1, 4} {
			st, logical := segTableOf(t, tab, 3)
			checkSegTable(t, rng, st, logical, NewPool(workers), fmt.Sprintf("seed %d workers %d", seed, workers))
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
