package engine

// Per-code row-span index over a CompressedCol: for every dictionary
// code, the half-open row ranges where it occurs, in row order, stored
// CSR-style (spanOff[c] .. spanOff[c+1] index (lo, hi) pairs in spans).
// SegTable.SelectEq probes it instead of walking every merged run of
// every segment per fragment — the walk that made NAIVE's per-candidate
// selections O(fragments × rows) over segments while the dense baseline
// answered them from hash indexes. The index is built lazily, once per
// column, for the immutable RLE/PACK encodings; dense parts scan their
// codes in place instead (an index built per query would cost more than
// the scan it replaces).

// spanIndex builds (once) and returns the CSR span index.
func (cc *CompressedCol) spanIndex() (off, spans []int32) {
	cc.spanOnce.Do(func() {
		d := len(cc.dict)
		o := make([]int32, d+1)
		nRuns := 0
		cc.forEachRun(func(code, lo, hi int32) {
			o[code+1]++
			nRuns++
		})
		for c := 0; c < d; c++ {
			o[c+1] += o[c]
		}
		sp := make([]int32, 2*nRuns)
		next := make([]int32, d)
		copy(next, o[:d])
		cc.forEachRun(func(code, lo, hi int32) {
			i := next[code]
			sp[2*i], sp[2*i+1] = lo, hi
			next[code]++
		})
		cc.spanOff, cc.spans = o, sp
	})
	return cc.spanOff, cc.spans
}

// codeSpans returns the (lo, hi) row-range pairs of code, in row order.
func (cc *CompressedCol) codeSpans(code int32) []int32 {
	off, spans := cc.spanIndex()
	return spans[2*off[code] : 2*off[code+1]]
}

// forEachRun walks the column's maximal equal-code runs in row order.
func (cc *CompressedCol) forEachRun(fn func(code, lo, hi int32)) {
	switch {
	case cc.runEnds != nil:
		lo := int32(0)
		for i, e := range cc.runEnds {
			fn(cc.runCodes[i], lo, e)
			lo = e
		}
	default: // PACK
		n := cc.n
		buf := make([]int32, decodeBlockLen)
		start, prev := int32(0), int32(-1)
		first := true
		for b := 0; b<<decodeBlockShift < n; b++ {
			blk := buf[:cc.blockLen(b)]
			cc.unpackBlock(b, blk)
			base := int32(b << decodeBlockShift)
			for i, c := range blk {
				if first {
					prev, first = c, false
					continue
				}
				if c != prev {
					fn(prev, start, base+int32(i))
					start, prev = base+int32(i), c
				}
			}
		}
		if !first {
			fn(prev, start, int32(n))
		}
	}
}

// selectEqSpans answers an equality probe over one sealed part from the
// probed columns' span indexes, emitting matching row ranges in row
// order — the same rows, split at the same run boundaries, a walk of
// the merged runs emits.
func selectEqSpans(p *compPart, want []int32, emit func(lo, hi int32)) {
	lists := make([][]int32, len(want))
	for k, cc := range p.keys {
		lists[k] = cc.codeSpans(want[k])
		if len(lists[k]) == 0 {
			return // code occurs in no row
		}
	}
	intersectSpans(lists, emit)
}

// intersectSpans emits, in row order, the row ranges covered by every
// one of the span lists (each sorted by row and pairwise disjoint).
// Cursors only move forward and skips use binary search, so the cost
// tracks the sparsest list plus the emitted ranges — not the total span
// count of every probed code.
func intersectSpans(lists [][]int32, emit func(lo, hi int32)) {
	if len(lists) == 1 {
		l := lists[0]
		for i := 0; i+1 < len(l); i += 2 {
			emit(l[i], l[i+1])
		}
		return
	}
	idx := make([]int, len(lists))
	lo := int32(0)
	for {
		// Grow lo until every list's current span contains it; hi is the
		// nearest span end, so [lo, hi) lies inside all current spans.
		stable := false
		var hi int32
		for !stable {
			stable = true
			hi = int32(1<<31 - 1)
			for i, l := range lists {
				j := idx[i]
				if 2*j >= len(l) {
					return
				}
				if l[2*j+1] <= lo {
					// Skip spans ending at or before lo (binary search —
					// a linear walk here would re-introduce the full span
					// scan for high-run columns).
					a, b := j+1, len(l)/2
					for a < b {
						mid := (a + b) / 2
						if l[2*mid+1] <= lo {
							a = mid + 1
						} else {
							b = mid
						}
					}
					j = a
					idx[i] = j
					if 2*j >= len(l) {
						return
					}
				}
				if s := l[2*j]; s > lo {
					lo = s
					stable = false
				}
				if e := l[2*j+1]; e < hi {
					hi = e
				}
			}
		}
		emit(lo, hi)
		lo = hi
	}
}
