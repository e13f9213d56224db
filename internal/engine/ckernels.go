package engine

import (
	"cape/internal/value"
)

// The parts kernels: GroupBy, SelectEq, CountDistinct and
// DistinctProject evaluated over a sequence of parts, where a part is
// one physically contiguous slab of rows — a sealed segment (RLE or
// bit-packed dictionary codes, possibly mmap'd) or a dense slab (a
// Table's rows, or a SegTable's append tail). A Table is one solo dense
// part; a SegTable is its segments plus the tail. Group identity, group
// order, aggregate fold order and result values are byte-identical to
// the row-oriented reference (ForceRowPath):
//
//   - Group ids are assigned in global first-appearance row order.
//     Cross-part identity goes through the canonical AppendKey bytes of
//     the dictionary values, the same equality classes the reference
//     groups by.
//   - Aggregates fold rows in global row order. Over sealed runs the
//     shortcuts are only those that are bitwise exact: count += runLen,
//     sumI += v·runLen (integer arithmetic), one dictionary Compare per
//     run for Min/Max; the float sum is accumulated by repeated per-row
//     adds so the summation order matches the reference fold exactly.
//     Dense parts fold per row from flat buffers, reading each row's own
//     kind, so Int(1)/Float(1) rows of one dictionary class keep their
//     kinds.
//   - Min/Max keep the value of the first row that wins under strict
//     Compare, like the reference.
//
// Equality probes where code comparison diverges from value.Equal (NaN,
// magnitudes past 2^53) are left to the caller's row scan; see EqCode.

// compPart is one contiguous slab of rows presented to the kernels. Slot
// s addresses key column s for s < len(keys) and aggregate s-len(keys)
// otherwise.
type compPart struct {
	n    int
	keys []*CompressedCol
	// Aggregate arguments, one entry per aggregate (nil ⇔ count(*)): a
	// sealed part folds the dictionary codes of aggs, a dense part the
	// flat per-row buffers of flats — no dictionary is ever built on an
	// aggregate column of a dense part.
	aggs  []*CompressedCol
	flats []*Col

	// cols maps each slot to its schema column (-1 for count(*)); val
	// reads values through rows (dense part, non-nil exactly then) or
	// seg (sealed part).
	cols []int
	rows []value.Tuple
	seg  *Segment

	// xlat, when set, maps each key column's local dictionary codes to
	// codes that are consistent across every part of the query (the
	// SegTable caches this unification per column — see colUnify). solo
	// marks a part that is the query's only part, whose local codes are
	// trivially globally unique. Either way beginPart skips per-query
	// dictionary translation.
	xlat [][]int32
	solo bool
}

// val materializes the value of one slot at a part-local row.
func (p *compPart) val(row, slot int) value.V {
	ci := p.cols[slot]
	if p.rows != nil {
		return p.rows[row][ci]
	}
	cc := p.seg.Col(ci)
	return cc.dict[cc.CodeAt(row)]
}

// keysAt materializes the key values of a part-local row into dst (one
// per key column): a dense part fetches the row once for all of them.
func (p *compPart) keysAt(row int, dst []value.V) {
	if p.rows != nil {
		src := p.rows[row]
		for k, ci := range p.cols[:len(dst)] {
			dst[k] = src[ci]
		}
		return
	}
	for k := range dst {
		dst[k] = p.val(row, k)
	}
}

// argFlags reports whether aggregate ai's argument holds any Float, and
// any NaN, in this part (false for count(*)).
func (p *compPart) argFlags(ai int) (hasFloat, hasNaN bool) {
	if p.rows != nil {
		if c := p.flats[ai]; c != nil {
			return c.hasFloat, c.hasNaN
		}
	} else if cc := p.aggs[ai]; cc != nil {
		return cc.hasFloat, cc.hasNaN
	}
	return false, false
}

// densePart presents t's rows as one uncompressed part: key columns as
// O(1) dense views of the cached dictionary-coded columns, aggregate
// arguments as flat buffers.
func densePart(t *Table, gIdx []int, aCols []aggCol) *compPart {
	c := t.Columns()
	p := &compPart{n: len(t.rows), rows: t.rows, cols: partCols(gIdx, aCols)}
	p.keys = make([]*CompressedCol, len(gIdx))
	for i, ci := range gIdx {
		p.keys[i] = denseView(c.Col(ci))
	}
	p.flats = make([]*Col, len(aCols))
	for i, ac := range aCols {
		if ac.idx >= 0 {
			p.flats[i] = c.FlatCol(ac.idx)
		}
	}
	return p
}

// partCols lays out a part's slot → schema column map.
func partCols(gIdx []int, aCols []aggCol) []int {
	cols := make([]int, 0, len(gIdx)+len(aCols))
	cols = append(cols, gIdx...)
	for _, ac := range aCols {
		cols = append(cols, ac.idx)
	}
	return cols
}

// partRef addresses one row of one part.
type partRef struct {
	part int32
	row  int32
}

// groupAssign is the global group table of one scan. Group identity is
// the tuple of per-column *global* dictionary codes: each part's local
// dictionary is translated to column-global codes once per part (dict-
// sized work, via the canonical AppendKey bytes of the values), so
// resolving a key combination never serializes bytes. When the global
// code space is small (setFlat), a flat remap indexed by the
// dims-flattened tuple is a perfect hash shared by every part;
// otherwise tuples are probed in an open-addressed table.
type groupAssign struct {
	nK     int
	gdict  []map[string]int32 // per key column: canonical value key bytes → global code
	firsts []partRef
	keyBuf []byte

	// keepKeys retains each group's canonical key bytes in keys, in
	// group-id order — morsel workers need them to merge their local
	// group tables into the global one (see morsel.go).
	keepKeys bool
	keys     [][]byte

	flatDims  []int32 // per key column global dictionary size; nil: hash mode
	flatRemap []int32 // flattened global key → gid, or -1
	gslots    []int32 // hash mode: open table over global code tuples, gid or -1
	gkeys     []int32 // hash mode: group g's global codes at [g*nK, (g+1)*nK)

	part    *compPart // current part (beginPart)
	partIdx int32
	xlat    [][]int32 // current part: per key column, local → global code (nil: identity)
	gcBuf   []int32
}

func newGroupAssign(nK int) *groupAssign {
	return &groupAssign{nK: nK, gdict: make([]map[string]int32, nK)}
}

// flatScanCap bounds the flattened global code space the flat remap may
// span (16 MB of int32s); setFlat also requires the space to stay within
// a small multiple of the rows scanned.
const flatScanCap = 1 << 22

// setFlat switches the table to the flat remap when the product of dims
// fits flatScanCap and 4·rows+64; otherwise it stays in hash mode.
func (ga *groupAssign) setFlat(dims []int32, rows int) {
	prod := int64(1)
	for _, d := range dims {
		if d == 0 {
			d = 1
		}
		prod *= int64(d)
		if prod > flatScanCap {
			return
		}
	}
	if prod > int64(4*rows+64) {
		return
	}
	ga.flatDims = dims
	ga.flatRemap = make([]int32, prod)
	for i := range ga.flatRemap {
		ga.flatRemap[i] = -1
	}
}

// translate maps one part's local dictionary codes for key column k to
// column-global codes, assigning fresh global codes to values this scan
// has not seen in column k yet. Identity is the value's canonical
// AppendKey bytes, so Int/Float representatives of the same class share
// one code across parts.
func (ga *groupAssign) translate(k int, dict []value.V) []int32 {
	m := ga.gdict[k]
	if m == nil {
		m = make(map[string]int32, len(dict))
		ga.gdict[k] = m
	}
	xl := make([]int32, len(dict))
	for c, v := range dict {
		ga.keyBuf = v.AppendKey(ga.keyBuf[:0])
		g, ok := m[string(ga.keyBuf)]
		if !ok {
			g = int32(len(m))
			m[string(ga.keyBuf)] = g
		}
		xl[c] = g
	}
	return xl
}

func (ga *groupAssign) beginPart(p *compPart, idx int32) {
	ga.part, ga.partIdx = p, idx
	ga.xlat = ga.xlat[:0]
	for k := 0; k < ga.nK; k++ {
		var xl []int32
		switch {
		case p.xlat != nil:
			xl = p.xlat[k]
		case !p.solo:
			xl = ga.translate(k, p.keys[k].dict)
		}
		ga.xlat = append(ga.xlat, xl)
	}
}

// assign resolves the group of part-local key codes first seen at row.
func (ga *groupAssign) assign(codes []int32, row int32) int32 {
	gc := ga.gcBuf[:0]
	for k, c := range codes {
		if xl := ga.xlat[k]; xl != nil {
			c = xl[c]
		}
		gc = append(gc, c)
	}
	ga.gcBuf = gc
	return ga.assignGlobal(gc, row)
}

func hashCodes(codes []int32) uint64 {
	const fnvOffset, fnvPrime = uint64(14695981039346656037), uint64(1099511628211)
	h := fnvOffset
	for _, c := range codes {
		h = (h ^ uint64(uint32(c))) * fnvPrime
	}
	return h
}

// assignGlobal resolves (inserting if new) the group of global codes gc,
// first seen at part-local row.
func (ga *groupAssign) assignGlobal(gc []int32, row int32) int32 {
	if ga.flatDims != nil {
		key := 0
		for k, c := range gc {
			key = key*int(ga.flatDims[k]) + int(c)
		}
		g := ga.flatRemap[key]
		if g < 0 {
			g = ga.newGroup(gc, row)
			ga.flatRemap[key] = g
		}
		return g
	}
	ga.reserve(1)
	mask := len(ga.gslots) - 1
	for i := int(hashCodes(gc)) & mask; ; i = (i + 1) & mask {
		s := ga.gslots[i]
		if s < 0 {
			g := ga.newGroup(gc, row)
			ga.gslots[i] = g
			return g
		}
		eg := ga.gkeys[int(s)*ga.nK : int(s)*ga.nK+ga.nK]
		match := true
		for k := range gc {
			if eg[k] != gc[k] {
				match = false
				break
			}
		}
		if match {
			return s
		}
	}
}

// newGroup appends a group first seen at part-local row with global
// codes gc. Canonical key bytes, when kept, are re-read through the
// local codes — once per group, not per row.
func (ga *groupAssign) newGroup(gc []int32, row int32) int32 {
	g := int32(len(ga.firsts))
	ga.firsts = append(ga.firsts, partRef{part: ga.partIdx, row: row})
	if ga.flatDims == nil {
		ga.gkeys = append(ga.gkeys, gc...)
	}
	if ga.keepKeys {
		key := ga.keyBuf[:0]
		for k := range gc {
			kc := ga.part.keys[k]
			key = kc.dict[kc.CodeAt(int(row))].AppendKey(key)
		}
		ga.keyBuf = key
		ga.keys = append(ga.keys, append([]byte(nil), key...))
	}
	return g
}

// reserve grows the hash table so n more groups fit under load factor
// 1/2, re-probing every existing group from the gkeys arena.
func (ga *groupAssign) reserve(n int) {
	need := 2 * (len(ga.firsts) + n)
	if need <= len(ga.gslots) {
		return
	}
	size := 64
	for size < need {
		size <<= 1
	}
	slots := make([]int32, size)
	for i := range slots {
		slots[i] = -1
	}
	mask := size - 1
	for g := 0; g < len(ga.firsts); g++ {
		h := hashCodes(ga.gkeys[g*ga.nK : (g+1)*ga.nK])
		for i := int(h) & mask; ; i = (i + 1) & mask {
			if slots[i] < 0 {
				slots[i] = int32(g)
				break
			}
		}
	}
	ga.gslots = slots
}

// sumNeedsFFor computes, per aggregate, whether Sum/Avg folds of sealed
// runs must accumulate sumF for int runs. hasFloat is a per-part
// property, but anyFloat (which makes result() read sumF) is global to
// the group: one float row anywhere forces every part — including
// float-free ones — to fold its int contributions into sumF, so the flag
// is OR'd across parts before any run is folded. (Dense folds always
// accumulate sumF.)
func sumNeedsFFor(parts []*compPart, aCols []aggCol) []bool {
	sumNeedsF := make([]bool, len(aCols))
	for ai, ac := range aCols {
		switch ac.spec.Func {
		case Avg:
			sumNeedsF[ai] = true
		case Sum:
			for _, p := range parts {
				if hasFloat, _ := p.argFlags(ai); hasFloat {
					sumNeedsF[ai] = true
					break
				}
			}
		}
	}
	return sumNeedsF
}

// groupStates holds the aggregate states of a scan's groups: bare
// int64 counts when every aggregate is count(*) — an 8-byte stride
// where high-cardinality groupings touch one cache line per group, not
// several — else one aggState slice per aggregate indexed by group id,
// so each aggregate's fold loop walks one contiguous array.
type groupStates struct {
	countOnly bool
	counts    []int64
	aggs      [][]aggState
}

func newGroupStates(aCols []aggCol) *groupStates {
	gs := &groupStates{countOnly: len(aCols) > 0}
	for _, ac := range aCols {
		if ac.spec.Func != Count || ac.idx >= 0 {
			gs.countOnly = false
		}
	}
	if !gs.countOnly {
		gs.aggs = make([][]aggState, len(aCols))
	}
	return gs
}

// grow extends the states to cover nG groups (new entries zero).
func (gs *groupStates) grow(nG int) {
	if gs.countOnly {
		gs.counts = growSlice(gs.counts, nG)
		return
	}
	for ai := range gs.aggs {
		gs.aggs[ai] = growSlice(gs.aggs[ai], nG)
	}
}

// result returns aggregate ai of group g.
func (gs *groupStates) result(g, ai int, f AggFunc) value.V {
	if gs.countOnly {
		return value.NewInt(gs.counts[g])
	}
	return gs.aggs[ai][g].result(f)
}

// growSlice extends s to n zero-valued elements (never shrinks): exactly
// on a first jump, at least doubling afterwards so group-at-a-time
// growth amortizes.
func growSlice[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		// The spare region was zeroed at allocation and never written
		// (growth is the only way len advances).
		return s[:n]
	}
	c := 2 * len(s)
	if c < n {
		c = n
	}
	grown := make([]T, n, c)
	copy(grown, s)
	return grown
}

// gbScan is the reusable state of one grouping walk: the group table,
// aggregate states, and scratch. The sequential kernel runs one gbScan
// over every part in order; morsel workers each run a private gbScan
// over their row range and merge afterwards.
type gbScan struct {
	ga *groupAssign
	gs *groupStates

	// Run-walk cursors (scanRuns).
	kcur  []runCur
	acur  []runCur
	codes []int32

	// Two-pass scratch (scanFlat): per-row group ids, key code vectors,
	// and one decoded aggregate code vector.
	gids       []int32
	keyVecs    [][]int32
	keyScratch [][]int32
	aggScratch []int32
}

func newGbScan(nK int, aCols []aggCol, keepKeys bool) *gbScan {
	sc := &gbScan{
		ga:         newGroupAssign(nK),
		gs:         newGroupStates(aCols),
		kcur:       make([]runCur, nK),
		acur:       make([]runCur, len(aCols)),
		codes:      make([]int32, nK),
		keyVecs:    make([][]int32, nK),
		keyScratch: make([][]int32, nK),
	}
	sc.ga.keepKeys = keepKeys
	return sc
}

// globalKeyDims computes, per key column, the size of the global code
// space across parts (the stride basis of flattened keys). Cost is one
// pass over each part's translation or dictionary.
func globalKeyDims(parts []*compPart, nK int) []int32 {
	dims := make([]int32, nK)
	for _, p := range parts {
		for k := 0; k < nK; k++ {
			var d int32
			if p.xlat != nil && p.xlat[k] != nil {
				for _, g := range p.xlat[k] {
					if g+1 > d {
						d = g + 1
					}
				}
			} else { // solo part or identity translation: codes are global
				d = int32(len(p.keys[k].dict))
			}
			if d > dims[k] {
				dims[k] = d
			}
		}
	}
	return dims
}

// flatScanMinRows is the smallest sealed range worth the two-pass
// kernel's decode into scratch.
const flatScanMinRows = 4096

// scanRange folds rows [lo, hi) of part pi into the scan's group table
// and aggregate states. Dense parts always take the two-pass kernel
// (scanFlat), reading their codes in place. Sealed parts take it when
// the range is large, the key space flat, and runs short (unsorted
// payloads decode to run length ~1); long runs are cheaper to walk
// wholesale (scanRuns).
func (sc *gbScan) scanRange(p *compPart, pi, lo, hi int32, aCols []aggCol, sumNeedsF []bool) {
	if p.rows == nil {
		nK, rows := len(sc.kcur), int(hi-lo)
		runs := 0
		for k := 0; k < nK; k++ {
			runs += p.keys[k].runsInRange(lo, hi)
		}
		if nK == 0 || sc.ga.flatDims == nil || rows < flatScanMinRows || runs*2 < nK*rows {
			sc.scanRuns(p, pi, lo, hi, aCols, sumNeedsF)
			return
		}
	}
	sc.scanFlat(p, pi, lo, hi, aCols, sumNeedsF)
}

// scanFlat is the two-pass kernel. Pass one assigns every row of the
// range its group id in one tight loop over the key code vectors — a
// flat remap lookup by the combined global code, or a hash probe when
// the key space is too large to flatten. Pass two folds each aggregate
// in its own loop over the group ids.
func (sc *gbScan) scanFlat(p *compPart, pi, lo, hi int32, aCols []aggCol, sumNeedsF []bool) {
	nK := len(sc.kcur)
	ga := sc.ga
	ga.beginPart(p, pi)
	keys := sc.keyCodes(p, lo, hi)
	gids := growI32(sc.gids, int(hi-lo))
	sc.gids = gids
	gc := sc.codes
	switch {
	case nK == 0:
		g := ga.assignGlobal(nil, lo)
		for r := range gids {
			gids[r] = g
		}
	case ga.flatDims != nil && nK == 1:
		remap := ga.flatRemap
		for r, c := range keys[0] {
			g := remap[c]
			if g < 0 {
				gc[0] = c
				g = ga.newGroup(gc, lo+int32(r))
				remap[c] = g
			}
			gids[r] = g
		}
	case ga.flatDims != nil:
		remap, dims := ga.flatRemap, ga.flatDims
		k0 := keys[0]
		for r := range gids {
			key := int(k0[r])
			for k := 1; k < nK; k++ {
				key = key*int(dims[k]) + int(keys[k][r])
			}
			g := remap[key]
			if g < 0 {
				for k := range gc {
					gc[k] = keys[k][r]
				}
				g = ga.newGroup(gc, lo+int32(r))
				remap[key] = g
			}
			gids[r] = g
		}
	default:
		ga.reserve(len(gids))
		for r := range gids {
			for k := range gc {
				gc[k] = keys[k][r]
			}
			gids[r] = ga.assignGlobal(gc, lo+int32(r))
		}
	}

	sc.gs.grow(len(ga.firsts))
	if sc.gs.countOnly {
		counts := sc.gs.counts
		for _, g := range gids {
			counts[g]++
		}
		return
	}
	for ai, ac := range aCols {
		st := sc.gs.aggs[ai]
		if p.rows != nil {
			sc.foldFlat(p, ai, st, ac.spec.Func, lo)
		} else {
			sc.foldCodes(p, ai, st, ac.spec.Func, lo, sumNeedsF[ai])
		}
	}
}

// keyCodes returns, per key column, the global codes of rows [lo, hi):
// a dense part's codes are read in place when they need no translation,
// everything else is decoded (and translated) into scratch.
func (sc *gbScan) keyCodes(p *compPart, lo, hi int32) [][]int32 {
	for k, kc := range p.keys {
		xl := sc.ga.xlat[k]
		if kc.dense != nil && xl == nil {
			sc.keyVecs[k] = kc.dense[lo:hi]
			continue
		}
		s := growI32(sc.keyScratch[k], int(hi-lo))
		sc.keyScratch[k] = s
		if kc.dense != nil {
			for i, c := range kc.dense[lo:hi] {
				s[i] = xl[c]
			}
		} else {
			kc.decodeRange(lo, hi, s)
			if xl != nil {
				for i, c := range s {
					s[i] = xl[c]
				}
			}
		}
		sc.keyVecs[k] = s
	}
	return sc.keyVecs
}

// foldFlat folds aggregate ai of a dense part into st over the range
// starting at part-local row lo whose group ids are sc.gids, per row
// from the flat buffers — the reference fold, row by row: each row's
// own kind decides Int vs Float, and Min/Max compare the boxed row
// values.
func (sc *gbScan) foldFlat(p *compPart, ai int, st []aggState, f AggFunc, lo int32) {
	gids := sc.gids
	col := p.flats[ai]
	if col == nil { // count(*)
		for _, g := range gids {
			st[g].count++
		}
		return
	}
	hi := int(lo) + len(gids)
	kinds := col.Kinds[lo:hi]
	switch f {
	case Count:
		for r, g := range gids {
			if kinds[r] != value.Null {
				st[g].count++
			}
		}
	case Sum, Avg:
		f64 := col.F64[lo:hi]
		var i64 []int64
		if col.I64 != nil {
			i64 = col.I64[lo:hi]
		}
		for r, g := range gids {
			switch kinds[r] {
			case value.Int:
				s := &st[g]
				s.sumI += i64[r]
				s.sumF += f64[r]
				s.count++
			case value.Float:
				s := &st[g]
				s.sumF += f64[r]
				s.anyFloat = true
				s.count++
			}
		}
	case Min, Max:
		rows, ci := p.rows[lo:hi], p.cols[len(p.keys)+ai]
		for r, g := range gids {
			if kinds[r] != value.Null {
				st[g].extend(rows[r][ci], f)
			}
		}
	}
}

// foldCodes folds aggregate ai of a sealed part into st over the range
// starting at part-local row lo whose group ids are sc.gids, decoding
// the argument's codes once and folding each row as a run of one.
func (sc *gbScan) foldCodes(p *compPart, ai int, st []aggState, f AggFunc, lo int32, needF bool) {
	gids := sc.gids
	cc := p.aggs[ai]
	if cc == nil { // count(*)
		for _, g := range gids {
			st[g].count++
		}
		return
	}
	codes := growI32(sc.aggScratch, len(gids))
	sc.aggScratch = codes
	cc.decodeRange(lo, lo+int32(len(gids)), codes)
	slot := len(p.keys) + ai
	for r, g := range gids {
		foldCompressedRun(&st[g], f, cc, codes[r], 1, p, int(lo)+r, slot, needF)
	}
}

// growI32 returns a length-n int32 slice reusing buf's capacity.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// scanRuns walks the merged key runs of rows [lo, hi) of a sealed part
// (runs straddling the range are clamped; clamping only splits a fold
// the per-row reference performs row-wise anyway), resolving one group
// and folding every aggregate once per merged run.
func (sc *gbScan) scanRuns(p *compPart, pi, lo, hi int32, aCols []aggCol, sumNeedsF []bool) {
	nK, nA := len(sc.kcur), len(aCols)
	sc.ga.beginPart(p, pi)
	for k := 0; k < nK; k++ {
		sc.kcur[k].initAt(p.keys[k], lo)
	}
	for ai := 0; ai < nA; ai++ {
		if p.aggs[ai] != nil {
			sc.acur[ai].initAt(p.aggs[ai], lo)
		}
	}
	for pos := lo; pos < hi; {
		segEnd := hi
		for k := 0; k < nK; k++ {
			sc.kcur[k].seek(pos)
			if sc.kcur[k].end < segEnd {
				segEnd = sc.kcur[k].end
			}
			sc.codes[k] = sc.kcur[k].code
		}
		gid := sc.ga.assign(sc.codes, pos)
		gs := sc.gs
		gs.grow(int(gid) + 1)
		if gs.countOnly {
			gs.counts[gid] += int64(segEnd - pos)
			pos = segEnd
			continue
		}
		for ai := 0; ai < nA; ai++ {
			st := &gs.aggs[ai][gid]
			cc := p.aggs[ai]
			if cc == nil { // count(*)
				st.count += int64(segEnd - pos)
				continue
			}
			cur := &sc.acur[ai]
			for q := pos; q < segEnd; {
				cur.seek(q)
				e := cur.end
				if e > segEnd {
					e = segEnd
				}
				foldCompressedRun(st, aCols[ai].spec.Func, cc,
					cur.code, int(e-q), p, int(q), nK+ai, sumNeedsF[ai])
				q = e
			}
		}
		pos = segEnd
	}
}

// groupParts runs one sequential grouping scan over every part in
// order: nK key columns resolved to groups, aCols folded into states.
func groupParts(parts []*compPart, nK int, aCols []aggCol) *gbScan {
	sumNeedsF := sumNeedsFFor(parts, aCols)
	sc := newGbScan(nK, aCols, false)
	rows := 0
	for _, p := range parts {
		rows += p.n
	}
	sc.ga.setFlat(globalKeyDims(parts, nK), rows)
	for pi, p := range parts {
		if p.n > 0 {
			sc.scanRange(p, int32(pi), 0, int32(p.n), aCols, sumNeedsF)
		}
	}
	return sc
}

// materializeGroups builds the grouped output table from the final
// group table (first-appearance refs) and aggregate states.
func materializeGroups(parts []*compPart, firsts []partRef, gs *groupStates,
	nK int, aCols []aggCol, sch Schema) *Table {

	nG, nA := len(firsts), len(aCols)
	out := NewTable(sch)
	out.rows = make([]value.Tuple, nG)
	width := len(sch)
	slab := make([]value.V, nG*width)
	for g := 0; g < nG; g++ {
		row := slab[g*width : (g+1)*width : (g+1)*width]
		fr := firsts[g]
		parts[fr.part].keysAt(int(fr.row), row[:nK])
		for ai := 0; ai < nA; ai++ {
			row[nK+ai] = gs.result(g, ai, aCols[ai].spec.Func)
		}
		out.rows[g] = row
	}
	return out
}

// groupByParts evaluates GroupBy over the concatenation of parts. nK is
// the number of group columns; aCols carries the aggregate specs. The
// output matches the reference GroupBy bitwise.
func groupByParts(parts []*compPart, nK int, aCols []aggCol, sch Schema) *Table {
	sc := groupParts(parts, nK, aCols)
	return materializeGroups(parts, sc.ga.firsts, sc.gs, nK, aCols, sch)
}

// foldCompressedRun folds one equal-code run of an aggregate argument
// into an aggState, reproducing the per-row reference fold exactly.
// firstRow is the part-local row where the run starts; slot addresses
// the argument column in part.val. needF (computed once per query by
// OR-ing hasFloat across all parts) forces sumF accumulation for int
// runs whenever the result can read sumF — Avg, or a Sum whose column
// holds a float in any part.
func foldCompressedRun(st *aggState, f AggFunc, cc *CompressedCol,
	code int32, k int, p *compPart, firstRow, slot int, needF bool) {

	kind := cc.dictKind[code]
	switch f {
	case Count:
		if kind != value.Null {
			st.count += int64(k)
		}
	case Sum, Avg:
		switch kind {
		case value.Int:
			st.sumI += int64(k) * cc.dictI64[code]
			st.count += int64(k)
			// sumF feeds the result only via Avg or anyFloat; the per-row
			// adds keep its summation order identical to the reference
			// when it does.
			if needF {
				fv := cc.dictF64[code]
				for j := 0; j < k; j++ {
					st.sumF += fv
				}
			}
		case value.Float:
			fv := cc.dictF64[code]
			for j := 0; j < k; j++ {
				st.sumF += fv
			}
			st.anyFloat = true
			st.count += int64(k)
		}
	case Min, Max:
		if kind == value.Null {
			return
		}
		// One Compare per run against the dictionary value; a win stores
		// the run's first row, the value the per-row fold would keep.
		if c := value.Compare(cc.dict[code], st.ext); !st.seen || f == Min && c < 0 || f == Max && c > 0 {
			st.ext = p.val(firstRow, slot)
		}
		st.seen = true
	}
}

// countDistinctParts counts distinct key combinations across parts. A
// single column unions the part dictionaries (O(distinct values), no
// row walk); multi-column sets run the grouping scan without aggregates.
func countDistinctParts(parts []*compPart, nK int) int {
	if nK != 1 {
		return len(groupParts(parts, nK, nil).ga.firsts)
	}
	if len(parts) == 1 {
		return len(parts[0].keys[0].dict)
	}
	seen := make(map[string]struct{})
	var buf []byte
	for _, p := range parts {
		for _, v := range p.keys[0].dict {
			buf = v.AppendKey(buf[:0])
			seen[string(buf)] = struct{}{}
		}
	}
	return len(seen)
}

// distinctParts returns the distinct key combinations across parts, in
// first-appearance order, as a table of schema sch.
func distinctParts(parts []*compPart, sch Schema) *Table {
	firsts := groupParts(parts, len(sch), nil).ga.firsts
	return materializeGroups(parts, firsts, nil, len(sch), nil, sch)
}

// selectEqPlanParts resolves an equality probe against every part's
// dictionaries. It returns, per part, the wanted code of each probed
// column. divergent reports that code comparison cannot answer
// value.Equal for this probe (the caller must use a boxed scan);
// otherwise parts whose entry is nil cannot contain a match.
func selectEqPlanParts(parts []*compPart, vals value.Tuple) (want [][]int32, divergent bool) {
	want = make([][]int32, len(parts))
	for pi, p := range parts {
		w := make([]int32, len(vals))
		miss := false
		for i, v := range vals {
			code, ok, div := p.keys[i].EqCode(v)
			if div {
				return nil, true
			}
			if !ok {
				miss = true
				continue
			}
			w[i] = code
		}
		if !miss {
			want[pi] = w
		}
	}
	return want, false
}

// selectEqPart emits, in row order, the part-local row ranges where
// every probed column carries its wanted code: sealed parts answer from
// their code-span indexes, dense parts scan their codes in place.
func selectEqPart(p *compPart, want []int32, emit func(lo, hi int32)) {
	if p.rows == nil {
		selectEqSpans(p, want, emit)
		return
	}
	n := p.n
	k0, w0, rest := p.keys[0].dense[:n], want[0], p.keys[1:]
	matches := func(r int) bool {
		if k0[r] != w0 {
			return false
		}
		for k, kc := range rest {
			if kc.dense[r] != want[k+1] {
				return false
			}
		}
		return true
	}
	for r := 0; r < n; r++ {
		// Most rows fail the first key: keep that compare inline.
		if k0[r] != w0 || !matches(r) {
			continue
		}
		lo := r
		for r++; r < n && matches(r); r++ {
		}
		emit(int32(lo), int32(r))
	}
}
