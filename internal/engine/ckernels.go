package engine

import (
	"cape/internal/value"
)

// The parts kernels: GroupBy and CountDistinct evaluated over a
// sequence of parts, where a part is one physically contiguous slab of
// rows — a sealed segment (RLE or bit-packed dictionary codes, possibly
// mmap'd) or a dense slab (a Table's columns, or a SegTable's append
// tail). A Table is one solo dense part; a SegTable is its segments
// plus the tail. Group identity, group order, aggregate fold order and
// result values are byte-identical to the literal row-at-a-time
// definitions in internal/oracle, which the differential tests hold
// every kernel to:
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
//     Dense parts fold per row from the columns' flat buffers, reading
//     each row's own kind, so Int(1)/Float(1) rows of one dictionary
//     class keep their kinds.
//   - Min/Max keep the value of the first row that wins under strict
//     Compare, like the reference.

// compPart is one contiguous slab of rows presented to the kernels: a
// sealed segment (seg non-nil) or a dense part, a Table's own columns.
// Slot s addresses key column s for s < len(keys) and aggregate
// s-len(keys) otherwise.
type compPart struct {
	n    int
	keys []*CompressedCol
	// aggs holds a sealed part's aggregate arguments, one entry per
	// aggregate (nil ⇔ count(*)), whose dictionary codes the folds read.
	aggs []*CompressedCol
	// dense holds a dense part's table column per slot (nil for
	// count(*)): aggregates fold its flat per-row buffers, and val reads
	// its exact values.
	dense []*Col

	// cols maps each slot to its schema column (-1 for count(*)); a
	// sealed part reads values through seg.
	cols []int
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
	if p.seg == nil {
		return p.dense[slot].Value(row)
	}
	cc := p.seg.Col(p.cols[slot])
	return cc.dict[cc.CodeAt(row)]
}

// argHasFloat reports whether aggregate ai's argument holds any Float
// in this part (false for count(*)).
func (p *compPart) argHasFloat(ai int) bool {
	if p.seg == nil {
		if c := p.dense[len(p.keys)+ai]; c != nil {
			return c.hasFloat
		}
	} else if cc := p.aggs[ai]; cc != nil {
		return cc.hasFloat
	}
	return false
}

// densePart presents t as one uncompressed part: key columns as O(1)
// dense views of the table's dictionary-coded columns, aggregate
// arguments as the columns' flat buffers.
func densePart(t *Table, gIdx []int, aCols []aggCol) *compPart {
	p := &compPart{n: t.n, cols: partCols(gIdx, aCols)}
	p.keys = make([]*CompressedCol, len(gIdx))
	p.dense = make([]*Col, len(gIdx)+len(aCols))
	for i, ci := range gIdx {
		p.dense[i] = t.cols[ci]
		p.keys[i] = denseView(t.cols[ci])
	}
	for i, ac := range aCols {
		if ac.idx >= 0 {
			p.dense[len(gIdx)+i] = t.cols[ac.idx]
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

	flatDims  []int32 // per key column global dictionary size; nil: hash mode
	flatRemap []int32 // flattened global key → gid, or -1
	gslots    []int32 // hash mode: open table over global code tuples, gid or -1
	gkeys     []int32 // hash mode: group g's global codes at [g*nK, (g+1)*nK)

	partIdx int32     // current part (beginPart)
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
	ga.partIdx = idx
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
// codes gc (nil in flat mode, where the remap slot holds the group).
func (ga *groupAssign) newGroup(gc []int32, row int32) int32 {
	g := int32(len(ga.firsts))
	ga.firsts = append(ga.firsts, partRef{part: ga.partIdx, row: row})
	if ga.flatDims == nil {
		ga.gkeys = append(ga.gkeys, gc...)
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
// accumulate sumF.) exact asks for the mirror on every Sum regardless:
// states that outlive the scan (GroupByAccums) must read correctly once
// a later float lands.
func sumNeedsFFor(parts []*compPart, aCols []aggCol, exact bool) []bool {
	sumNeedsF := make([]bool, len(aCols))
	for ai, ac := range aCols {
		switch ac.spec.Func {
		case Avg:
			sumNeedsF[ai] = true
		case Sum:
			if exact {
				sumNeedsF[ai] = true
				break
			}
			for _, p := range parts {
				if p.argHasFloat(ai) {
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

// state returns aggregate ai's state of group g.
func (gs *groupStates) state(g, ai int) aggState {
	if gs.countOnly {
		return aggState{count: gs.counts[g]}
	}
	return gs.aggs[ai][g]
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

// gbScan is the state of one grouping walk over every part in order:
// the group table, aggregate states, and scratch.
type gbScan struct {
	ga *groupAssign
	gs *groupStates

	// Run-walk cursors (scanRuns).
	kcur  []runCur
	acur  []runCur
	codes []int32

	// Two-pass scratch (scanFlat): per-row group ids, the flat mode's
	// per-column key tables, the hash mode's translated key codes, and
	// one decoded aggregate code vector.
	gids       []int32
	keyTbls    [][]int32
	keyVecs    [][]int32
	keyScratch [][]int32
	aggScratch []int32
}

func newGbScan(nK int, aCols []aggCol) *gbScan {
	return &gbScan{
		ga:         newGroupAssign(nK),
		gs:         newGroupStates(aCols),
		kcur:       make([]runCur, nK),
		acur:       make([]runCur, len(aCols)),
		codes:      make([]int32, nK),
		keyTbls:    make([][]int32, nK),
		keyVecs:    make([][]int32, nK),
		keyScratch: make([][]int32, nK),
	}
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

// flatScanMinRows is the smallest sealed part worth the two-pass
// kernel's per-row passes over the key columns.
const flatScanMinRows = 4096

// scanPart folds every row of part pi into the scan's group table and
// aggregate states. Dense parts always take the two-pass kernel
// (scanFlat), reading their codes in place. Sealed parts take it when
// the part is large, the key space flat, and runs short (unsorted
// payloads decode to run length ~1); long runs are cheaper to walk
// wholesale (scanRuns).
func (sc *gbScan) scanPart(p *compPart, pi int32, aCols []aggCol, sumNeedsF []bool) {
	if p.seg != nil {
		nK := len(sc.kcur)
		runs := 0
		for k := 0; k < nK; k++ {
			runs += p.keys[k].runs()
		}
		if nK == 0 || sc.ga.flatDims == nil || p.n < flatScanMinRows || runs*2 < nK*p.n {
			sc.scanRuns(p, pi, aCols, sumNeedsF)
			return
		}
	}
	sc.scanFlat(p, pi, aCols, sumNeedsF)
}

// scanFlat is the two-pass kernel. Pass one assigns every row of the
// part its group id; pass two folds each aggregate in its own loop over
// the group ids. In flat mode pass one builds each row's flattened key
// column at a time, a chunk of rows at a time: every key column adds its
// codes' stride-scaled global codes (keyTables) straight from its
// encoding into the chunk's keys, which then probe the flat remap once
// per row. When the key space is too large to flatten — only dense
// parts get here then — each row's tuple of global codes is hash-probed.
func (sc *gbScan) scanFlat(p *compPart, pi int32, aCols []aggCol, sumNeedsF []bool) {
	nK := len(sc.kcur)
	ga := sc.ga
	ga.beginPart(p, pi)
	gids := growI32(sc.gids, p.n)
	sc.gids = gids
	switch {
	case nK == 0:
		g := ga.assignGlobal(nil, 0)
		for r := range gids {
			gids[r] = g
		}
	case ga.flatDims != nil:
		tbls := sc.keyTables(p)
		remap := ga.flatRemap
		for c0 := 0; c0 < len(gids); c0 += flatChunkRows {
			keys := gids[c0:min(c0+flatChunkRows, len(gids))]
			clear(keys)
			for k, kc := range p.keys {
				kc.addKeys(int32(c0), tbls[k], keys)
			}
			for r, key := range keys {
				g := remap[key]
				if g < 0 {
					g = ga.newGroup(nil, int32(c0+r))
					remap[key] = g
				}
				keys[r] = g
			}
		}
	default:
		keys := sc.keyCodes(p)
		gc := sc.codes
		ga.reserve(len(gids))
		for r := range gids {
			for k := range gc {
				gc[k] = keys[k][r]
			}
			gids[r] = ga.assignGlobal(gc, int32(r))
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
		if p.seg == nil {
			sc.foldFlat(p, ai, st, ac.spec.Func)
		} else {
			sc.foldCodes(p, ai, st, ac.spec.Func, sumNeedsF[ai])
		}
	}
}

// flatChunkRows is how many rows the flat kernel keys at a time: the
// chunk's keys stay in L1 across the key columns' passes.
const flatChunkRows = 1024

// keyTables returns, per key column of the current part, what each local
// code adds to a row's flattened key: its global code (through the
// part's translation) times the column's stride, the product of the
// later columns' dims. Summed over the columns, that is the Horner key
// assignGlobal computes, so every part and kernel shares one flat remap.
func (sc *gbScan) keyTables(p *compPart) [][]int32 {
	ga := sc.ga
	stride := int32(1)
	for k := ga.nK - 1; k >= 0; k-- {
		tbl := growI32(sc.keyTbls[k], len(p.keys[k].dict))
		if xl := ga.xlat[k]; xl != nil {
			for c, g := range xl {
				tbl[c] = g * stride
			}
		} else {
			for c := range tbl {
				tbl[c] = int32(c) * stride
			}
		}
		sc.keyTbls[k] = tbl
		stride *= ga.flatDims[k]
	}
	return sc.keyTbls
}

// keyCodes returns, per key column, the global codes of a dense part's
// rows for the hash-mode probe: read in place when they need no
// translation, translated into scratch otherwise. Sealed parts take the
// two-pass kernel only in flat mode (scanPart).
func (sc *gbScan) keyCodes(p *compPart) [][]int32 {
	for k, kc := range p.keys {
		codes := kc.dense[:p.n]
		if xl := sc.ga.xlat[k]; xl != nil {
			s := growI32(sc.keyScratch[k], len(codes))
			for i, c := range codes {
				s[i] = xl[c]
			}
			sc.keyScratch[k] = s
			codes = s
		}
		sc.keyVecs[k] = codes
	}
	return sc.keyVecs
}

// foldFlat folds aggregate ai of a dense part, whose rows' group ids
// are sc.gids, into st, per row from the flat buffers — the reference
// fold, row by row: each row's own kind decides Int vs Float, and
// Min/Max compare the rows' exact values.
func (sc *gbScan) foldFlat(p *compPart, ai int, st []aggState, f AggFunc) {
	gids := sc.gids
	col := p.dense[len(p.keys)+ai]
	if col == nil { // count(*)
		for _, g := range gids {
			st[g].count++
		}
		return
	}
	n := len(gids)
	kinds := col.Kinds[:n]
	switch f {
	case Count:
		for r, g := range gids {
			if kinds[r] != value.Null {
				st[g].count++
			}
		}
	case Sum, Avg:
		f64 := col.F64[:n]
		var i64 []int64
		if col.I64 != nil {
			i64 = col.I64[:n]
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
		for r, g := range gids {
			if kinds[r] != value.Null {
				st[g].extend(col.Value(r), f)
			}
		}
	}
}

// foldCodes folds aggregate ai of a sealed part, whose rows' group ids
// are sc.gids, into st, decoding the argument's codes once and folding
// each row as a run of one.
func (sc *gbScan) foldCodes(p *compPart, ai int, st []aggState, f AggFunc, needF bool) {
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
	cc.decodeRange(0, int32(len(gids)), codes)
	slot := len(p.keys) + ai
	for r, g := range gids {
		foldCompressedRun(&st[g], f, cc, codes[r], 1, p, r, slot, needF)
	}
}

// growI32 returns a length-n int32 slice reusing buf's capacity.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// scanRuns walks the merged key runs of a sealed part, resolving one
// group and folding every aggregate once per merged run.
func (sc *gbScan) scanRuns(p *compPart, pi int32, aCols []aggCol, sumNeedsF []bool) {
	nK, nA := len(sc.kcur), len(aCols)
	sc.ga.beginPart(p, pi)
	for k := 0; k < nK; k++ {
		sc.kcur[k].init(p.keys[k])
	}
	for ai := 0; ai < nA; ai++ {
		if p.aggs[ai] != nil {
			sc.acur[ai].init(p.aggs[ai])
		}
	}
	n := int32(p.n)
	for pos := int32(0); pos < n; {
		segEnd := n
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
// order: nK key columns resolved to groups, aCols folded into states
// (sumNeedsF as sumNeedsFFor computes it; nil without aggregates).
func groupParts(parts []*compPart, nK int, aCols []aggCol, sumNeedsF []bool) *gbScan {
	sc := newGbScan(nK, aCols)
	rows := 0
	for _, p := range parts {
		rows += p.n
	}
	sc.ga.setFlat(globalKeyDims(parts, nK), rows)
	for pi, p := range parts {
		if p.n > 0 {
			sc.scanPart(p, int32(pi), aCols, sumNeedsF)
		}
	}
	return sc
}

// groupByParts evaluates GroupBy over parts: one groupParts scan,
// materialized.
func groupByParts(parts []*compPart, nK int, aCols []aggCol, sch Schema) *Table {
	sc := groupParts(parts, nK, aCols, sumNeedsFFor(parts, aCols, false))
	return materializeGroups(parts, sc.ga.firsts, sc.gs, nK, aCols, sch)
}

// materializeGroups builds the grouped output table from the final
// group table (first-appearance refs) and aggregate states.
func materializeGroups(parts []*compPart, firsts []partRef, gs *groupStates,
	nK int, aCols []aggCol, sch Schema) *Table {

	nG := len(firsts)
	out := NewTable(sch)
	out.n = nG
	var key []byte
	// A key column's classes are the parts' global codes (local codes
	// through the part's translation, if any): each class is keyed once,
	// when its first group is written.
	for k, dim := range globalKeyDims(parts, nK) {
		c := out.cols[k]
		c.grow(nG)
		codes := make([]int32, dim) // global code → output code + 1; 0: unseen
		for _, fr := range firsts {
			p, row := parts[fr.part], int(fr.row)
			cls := p.keys[k].CodeAt(row)
			if p.xlat != nil && p.xlat[k] != nil {
				cls = p.xlat[k][cls]
			}
			v := p.val(row, k)
			code := &codes[cls]
			if *code == 0 {
				key = v.AppendKey(key[:0])
				*code = c.addClass(v, key) + 1
			}
			c.pushCode(v, *code-1)
		}
	}
	fillAggCols(out, gs, nK, aCols)
	return out
}

// fillAggCols writes every group's aggregate results, in group order,
// into out's columns nK onwards.
func fillAggCols(out *Table, gs *groupStates, nK int, aCols []aggCol) {
	var key []byte
	for ai, ac := range aCols {
		c := out.cols[nK+ai]
		c.grow(out.n)
		if ac.spec.Func == Count {
			fillCounts(c, gs, ai, out.n)
			continue
		}
		for g := 0; g < out.n; g++ {
			st := gs.state(g, ai)
			key = c.push(st.result(ac.spec.Func), key)
		}
	}
}

// fillCounts writes aggregate ai's counts of groups [0, nG) into c.
// Counts are non-negative Ints, so a count → code slice replaces push's
// dictionary probe: a count is keyed only where its class first occurs,
// which builds the dictionary push builds. The slice spans the counts
// below nG+64; the rare larger counts are pushed.
func fillCounts(c *Col, gs *groupStates, ai, nG int) {
	maxCount := int64(0)
	for g := 0; g < nG; g++ {
		maxCount = max(maxCount, gs.state(g, ai).count)
	}
	codes := make([]int32, min(maxCount, int64(nG)+64)+1) // count → code + 1; 0: unseen
	var key []byte
	for g := 0; g < nG; g++ {
		n := gs.state(g, ai).count
		v := value.NewInt(n)
		if n >= int64(len(codes)) {
			key = c.push(v, key)
			continue
		}
		if codes[n] == 0 {
			key = v.AppendKey(key[:0])
			codes[n] = c.addClass(v, key) + 1
		}
		c.pushCode(v, codes[n]-1)
	}
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
		return len(groupParts(parts, nK, nil, nil).ga.firsts)
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
