package engine

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"cape/internal/value"
)

// CompressedCol is a compressed encoding of one dictionary-coded column:
// the per-row int32 codes of a Col re-expressed as run-length runs or as
// bit-packed words, next to the shared dictionary. Kernels that group
// or aggregate consume it through a runCur — a cursor yielding
// maximal equal-code runs in row order — so their cost scales with the
// number of runs (RLE) or with a sequential unpack (bit-packed), never
// with boxed per-row dispatch, and the code payload of an on-disk
// segment column can stay mmap'd instead of being decoded into dense
// heap slices.
//
// Nulls need no separate bitmap here: NULL is a dictionary value like
// any other (compare Col, whose flat buffers carry an explicit bitmap).
// All fields are immutable after construction; a CompressedCol is safe
// for concurrent use.
type CompressedCol struct {
	n    int
	dict []value.V

	// Dictionary metadata decoded once so aggregate folds never touch
	// boxed values: kind, numeric payloads, and the flag the dispatch
	// rules check. Sealed (RLE/PACK) columns only: a dense view serves
	// as a key column alone.
	dictKind []value.Kind
	dictF64  []float64
	dictI64  []int64
	hasFloat bool // any Float value in the dictionary (sumF shortcuts)

	// Exactly one of the three encodings is populated:
	//   RLE:   runEnds[i] is the exclusive end row of run i, whose code
	//          is runCodes[i].
	//   PACK:  codes bit-packed LSB-first into little-endian 64-bit
	//          words (bitWidth bits each); packed may view mmap'd bytes.
	//   DENSE: a zero-copy view over a Col's Codes slice (the key
	//          columns of a dense part: a Table, or a SegTable's tail).
	runEnds  []int32
	runCodes []int32
	packed   []byte
	bitWidth uint32
	dense    []int32

	// Decoded-block cache for the PACK encoding: sequential cursors
	// decode 1024-code blocks through here, so scans that revisit the
	// same rows (one group-by per attribute set) pay the bit-unpack once
	// per block instead of once per row per scan. The cache is keyed by block index only —
	// the column is immutable, so there is no epoch to track: a column
	// rebuilt after an append (or a segment re-opened after Compact) is
	// a fresh CompressedCol with a fresh cache, and closing a segment
	// drops its columns and their caches together, before the mmap is
	// unmapped. Cached slices are never mutated after insertion, and
	// eviction only drops the cache's reference, so cursors holding an
	// evicted block stay valid.
	blockMu   sync.Mutex
	blockTick uint64
	blockMap  map[int32]*decodedBlock
}

// decodedBlock is one cached decoded PACK block with its LRU recency.
type decodedBlock struct {
	codes []int32
	used  uint64
}

// Decode blocks are 1024 codes; the per-column cache keeps the 64 most
// recently used (256 KiB of codes), enough to cover the run cursors of
// the scans a pool runs over one column at once many times over while
// staying irrelevant next to the mmap'd payload it fronts.
const (
	decodeBlockShift  = 10
	decodeBlockLen    = 1 << decodeBlockShift
	decodeCacheBlocks = 64
)

// Encoding names for introspection (cape convert reporting, tests).
const (
	encRLE   = 1
	encPack  = 2
	encDense = 3
)

func (cc *CompressedCol) encoding() int {
	switch {
	case cc.runEnds != nil:
		return encRLE
	case cc.packed != nil:
		return encPack
	default:
		return encDense
	}
}

// EncodingName reports the storage encoding ("rle", "bitpack", "dense").
func (cc *CompressedCol) EncodingName() string {
	switch cc.encoding() {
	case encRLE:
		return "rle"
	case encPack:
		return "bitpack"
	default:
		return "dense"
	}
}

// NumRuns reports the stored run count (RLE only; 0 otherwise).
func (cc *CompressedCol) NumRuns() int { return len(cc.runEnds) }

// Dict returns the dictionary (callers must not mutate it).
func (cc *CompressedCol) Dict() []value.V { return cc.dict }

// buildDictMeta decodes the dictionary into flat lookup arrays.
func (cc *CompressedCol) buildDictMeta() {
	d := len(cc.dict)
	cc.dictKind = make([]value.Kind, d)
	cc.dictF64 = make([]float64, d)
	cc.dictI64 = make([]int64, d)
	for i, v := range cc.dict {
		k := v.Kind()
		cc.dictKind[i] = k
		switch k {
		case value.Int:
			iv := v.Int()
			cc.dictI64[i] = iv
			cc.dictF64[i] = float64(iv)
		case value.Float:
			f := v.Float()
			cc.dictF64[i] = f
			cc.hasFloat = true
		}
	}
}

// CodeAt returns the code of row i: direct for DENSE and PACK, a binary
// search over run ends for RLE. Intended for sparse random access (row
// materialization, group representatives); sequential consumers use a
// runCur.
func (cc *CompressedCol) CodeAt(i int) int32 {
	switch {
	case cc.dense != nil:
		return cc.dense[i]
	case cc.packed != nil:
		return cc.unpack(i)
	default:
		lo, hi := 0, len(cc.runEnds)
		for lo < hi {
			mid := (lo + hi) / 2
			if int(cc.runEnds[mid]) <= i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return cc.runCodes[lo]
	}
}

// unpack decodes one bit-packed code. Codes are packed LSB-first into
// little-endian 64-bit words; a code may straddle two words.
func (cc *CompressedCol) unpack(i int) int32 {
	bw := uint(cc.bitWidth)
	bitPos := uint64(i) * uint64(bw)
	w := (bitPos >> 6) << 3
	off := uint(bitPos & 63)
	lo := binary.LittleEndian.Uint64(cc.packed[w:]) >> off
	if off+bw > 64 {
		lo |= binary.LittleEndian.Uint64(cc.packed[w+8:]) << (64 - off)
	}
	return int32(lo & (1<<bw - 1))
}

// unpackCodes decodes the packed codes of rows [start, start+len(dst))
// into dst, streaming the words through a register instead of
// recomputing a byte offset and reloading for every row. Widths that
// divide 64 (1, 2, 4, 8, 16, 32) never straddle a word: each word is
// loaded once and shifted out code by code. Other widths carry a code
// that straddles two words into the next one.
func (cc *CompressedCol) unpackCodes(start int, dst []int32) {
	if len(dst) == 0 {
		return
	}
	bw := uint(cc.bitWidth)
	mask := uint64(1)<<bw - 1
	bitPos := uint64(start) * uint64(bw)
	w := int(bitPos>>6) << 3
	off := uint(bitPos & 63)
	packed := cc.packed
	cur := binary.LittleEndian.Uint64(packed[w:])
	if 64%bw == 0 {
		per := int(64 / bw)
		cur >>= off
		i := min(len(dst), per-int(off/bw))
		for j := range dst[:i] {
			dst[j] = int32(cur & mask)
			cur >>= bw & 63
		}
		for ; i < len(dst); i += per {
			w += 8
			cur = binary.LittleEndian.Uint64(packed[w:])
			d := dst[i:min(i+per, len(dst))]
			for j := range d {
				d[j] = int32(cur & mask)
				cur >>= bw & 63
			}
		}
		return
	}
	for i := range dst {
		v := cur >> off
		off += bw
		if off >= 64 {
			w += 8
			off -= 64
			if w+8 <= len(packed) {
				cur = binary.LittleEndian.Uint64(packed[w:])
			} else {
				cur = 0
			}
			if off > 0 {
				v |= cur << (bw - off)
			}
		}
		dst[i] = int32(v & mask)
	}
}

// addKeys adds tbl[code] to keys[i] for the code of every row
// lo+i: dense codes are read in place, an RLE run adds one constant to
// its rows, and packed codes unpack a cache-resident chunk at a time.
// It is the flat group-by kernel's per-column pass (see gbScan.scanFlat).
func (cc *CompressedCol) addKeys(lo int32, tbl, keys []int32) {
	switch {
	case cc.dense != nil:
		for i, c := range cc.dense[lo : int(lo)+len(keys)] {
			keys[i] += tbl[c]
		}
	case cc.packed != nil:
		var buf [256]int32
		for i := 0; i < len(keys); i += len(buf) {
			codes := buf[:min(len(buf), len(keys)-i)]
			cc.unpackCodes(int(lo)+i, codes)
			d := keys[i : i+len(codes)]
			for j, c := range codes {
				d[j] += tbl[c]
			}
		}
	default:
		hi := lo + int32(len(keys))
		for ri, pos := runIdx(cc.runEnds, lo), lo; pos < hi; ri++ {
			end := min(cc.runEnds[ri], hi)
			v, run := tbl[cc.runCodes[ri]], keys[pos-lo:end-lo]
			for j := range run {
				run[j] += v
			}
			pos = end
		}
	}
}

// runIdx returns the index of the run containing row i (RLE only).
func runIdx(runEnds []int32, i int32) int {
	lo, hi := 0, len(runEnds)
	for lo < hi {
		mid := (lo + hi) / 2
		if runEnds[mid] <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// runs reports how many maximal equal-code runs the column holds: exact
// for RLE, its row count for PACK (the worst case — unsorted payloads
// decode to run length ~1, which is when the decode pass beats the run
// walk). Group-by uses it to pick between the two.
func (cc *CompressedCol) runs() int {
	if cc.runEnds == nil {
		return cc.n
	}
	return len(cc.runEnds)
}

// decodeRange materializes the codes of rows [lo, hi) of a sealed
// (RLE/PACK) column into dst (length hi-lo).
func (cc *CompressedCol) decodeRange(lo, hi int32, dst []int32) {
	if cc.packed != nil {
		cc.unpackCodes(int(lo), dst[:hi-lo])
		return
	}
	i := runIdx(cc.runEnds, lo) // RLE
	for pos := lo; pos < hi; i++ {
		end := cc.runEnds[i]
		if end > hi {
			end = hi
		}
		c := cc.runCodes[i]
		seg := dst[pos-lo : end-lo]
		for j := range seg {
			seg[j] = c
		}
		pos = end
	}
}

// blockLen returns the row count of decode block b.
func (cc *CompressedCol) blockLen(b int) int {
	lo := b << decodeBlockShift
	hi := lo + decodeBlockLen
	if hi > cc.n {
		hi = cc.n
	}
	return hi - lo
}

// decodedBlockAt returns the decoded codes of PACK block b, serving
// repeat reads from the per-column LRU. The returned slice is shared
// and must not be mutated.
func (cc *CompressedCol) decodedBlockAt(b int) []int32 {
	key := int32(b)
	cc.blockMu.Lock()
	if db, ok := cc.blockMap[key]; ok {
		cc.blockTick++
		db.used = cc.blockTick
		codes := db.codes
		cc.blockMu.Unlock()
		return codes
	}
	cc.blockMu.Unlock()

	codes := make([]int32, cc.blockLen(b))
	cc.unpackCodes(b<<decodeBlockShift, codes)

	cc.blockMu.Lock()
	if db, ok := cc.blockMap[key]; ok {
		// Decoded concurrently by another cursor; keep the cached copy.
		cc.blockTick++
		db.used = cc.blockTick
		codes = db.codes
	} else {
		if cc.blockMap == nil {
			cc.blockMap = make(map[int32]*decodedBlock, decodeCacheBlocks)
		} else if len(cc.blockMap) >= decodeCacheBlocks {
			var evict int32
			oldest := uint64(1<<64 - 1)
			for k, v := range cc.blockMap {
				if v.used < oldest {
					oldest, evict = v.used, k
				}
			}
			delete(cc.blockMap, evict)
		}
		cc.blockTick++
		cc.blockMap[key] = &decodedBlock{codes: codes, used: cc.blockTick}
	}
	cc.blockMu.Unlock()
	return codes
}

// packCodes bit-packs codes into little-endian words of bw bits each.
func packCodes(codes []int32, bw uint32) []byte {
	words := (uint64(len(codes))*uint64(bw) + 63) / 64
	out := make([]byte, words*8)
	var acc uint64
	var accBits uint
	w := 0
	for _, c := range codes {
		acc |= uint64(uint32(c)) << accBits
		accBits += uint(bw)
		for accBits >= 64 {
			binary.LittleEndian.PutUint64(out[w:], acc)
			w += 8
			accBits -= 64
			if accBits > 0 {
				acc = uint64(uint32(c)) >> (uint(bw) - accBits)
			} else {
				acc = 0
			}
		}
	}
	if accBits > 0 {
		binary.LittleEndian.PutUint64(out[w:], acc)
	}
	return out
}

// bitWidthFor returns the packed width for a dictionary of d entries
// (at least 1 bit so zero-length codes never occur).
func bitWidthFor(d int) uint32 {
	if d <= 1 {
		return 1
	}
	return uint32(bits.Len32(uint32(d - 1)))
}

// rleRuns run-length encodes codes.
func rleRuns(codes []int32) (ends, runs []int32) {
	for i := 0; i < len(codes); {
		c := codes[i]
		j := i + 1
		for j < len(codes) && codes[j] == c {
			j++
		}
		ends = append(ends, int32(j))
		runs = append(runs, c)
		i = j
	}
	return ends, runs
}

// compressCodes builds a CompressedCol from dense codes and their
// dictionary, choosing the smaller of RLE and bit-packed storage (the
// tie goes to RLE, whose cursor is cheaper).
func compressCodes(codes []int32, dict []value.V) *CompressedCol {
	cc := &CompressedCol{n: len(codes), dict: dict}
	cc.buildDictMeta()
	ends, runs := rleRuns(codes)
	bw := bitWidthFor(len(dict))
	rleBytes := len(ends) * 8
	packBytes := (len(codes)*int(bw) + 63) / 64 * 8
	if rleBytes <= packBytes {
		cc.runEnds, cc.runCodes = ends, runs
	} else {
		cc.bitWidth = bw
		cc.packed = packCodes(codes, bw)
	}
	return cc
}

// denseView presents a Col's dense codes as a key column of the parts
// kernels in O(1): codes and dictionary are the Col's own, nothing is
// copied or scanned. Only key columns take this
// view — a dense part reads its aggregate arguments from flat buffers
// (see compPart) — so the dictionary metadata of aggregate folds is
// never built for it.
func denseView(col *Col) *CompressedCol {
	return &CompressedCol{n: len(col.Codes), dict: col.Dict, dense: col.Codes}
}

// runCur is a cursor over the maximal equal-code runs of a CompressedCol
// in row order. After seek(pos), code is the code of row pos and end is
// the first row after pos with a different code (or n). PACK and DENSE
// encodings synthesize runs by coalescing adjacent equal codes during
// the sequential decode; PACK decodes 1024-code blocks once (through
// the column's block cache) instead of re-unpacking bits per row, and a
// run continues across block boundaries so runs stay maximal.
type runCur struct {
	cc   *CompressedCol
	idx  int   // next RLE run to load
	end  int32 // exclusive end of the current run
	code int32

	// Current decoded PACK block: rows [bufLo, bufLo+len(buf)).
	buf   []int32
	bufLo int32
}

func (c *runCur) init(cc *CompressedCol) {
	c.cc = cc
	c.idx = 0
	c.end = 0
	c.code = -1
	c.buf = nil
	c.bufLo = 0
}

// loadBlock points buf at the decoded block containing row pos.
func (c *runCur) loadBlock(pos int32) {
	b := int(pos) >> decodeBlockShift
	c.buf = c.cc.decodedBlockAt(b)
	c.bufLo = int32(b << decodeBlockShift)
}

// seek advances the cursor so that its current run covers row pos.
// pos must be non-decreasing across calls.
func (c *runCur) seek(pos int32) {
	if pos < c.end {
		return
	}
	cc := c.cc
	if cc.runEnds != nil {
		for c.idx < len(cc.runEnds) && cc.runEnds[c.idx] <= pos {
			c.idx++
		}
		c.end = cc.runEnds[c.idx]
		c.code = cc.runCodes[c.idx]
		c.idx++
		return
	}
	n := int32(cc.n)
	if pos < c.bufLo || pos >= c.bufLo+int32(len(c.buf)) {
		c.loadBlock(pos)
	}
	code := c.buf[pos-c.bufLo]
	e := pos + 1
	for e < n {
		if e >= c.bufLo+int32(len(c.buf)) {
			c.loadBlock(e)
		}
		buf, lo := c.buf, c.bufLo
		i := e - lo
		m := int32(len(buf))
		for i < m && buf[i] == code {
			i++
		}
		e = lo + i
		if i < m {
			break // run ended inside this block
		}
	}
	c.code, c.end = code, e
}
