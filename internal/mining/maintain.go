package mining

import (
	"fmt"
	"sort"

	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/regress"
	"cape/internal/value"
)

// Maintainer keeps a mined pattern set fresh under appends. Per grouping
// attribute set it retains the grouped table in struct-of-arrays form —
// one key slab, one engine.AggAccum slab, and a decoded float64 column
// per aggregate (the observations) and per attribute (the predictors) —
// and, for every (F, V) split, each fragment's groups in observation
// order. An appended batch costs
//
//	O(batch × groupings)             fold rows, refresh touched groups' y
//	+ O(Σ |fragment| over dirtied)   re-fit: stream the flat columns
//
// instead of the full group-sort-fit pipeline over the whole table. The
// second term is the larger one: a split on a low-cardinality F (year,
// type) has few, large fragments, so a 100-row batch dirties all of
// them and the re-fit walks that split's whole grouped table.
//
// The maintained set is pinned byte-identical to a cold ARPMine run
// (without FD pruning) over the same rows:
//
//   - Appended rows land at the table tail, so folding them onto the
//     retained accumulators reproduces GroupBy's per-group fold order
//     bit for bit, and new groups enter in first-appearance order —
//     exactly where a re-run's grouped table would place them.
//   - Each fragment keeps its groups in the miner's observation order:
//     sorted by the predictor sequence of the sort order that first
//     tested the split (value.Compare ranks, ties by grouped-row
//     index — the engine's permutation sorts are stable). Re-fitting
//     folds observations through the same ConstStats / FitLinInto
//     kernels in the same order, so float arithmetic agrees exactly.
//
// Float sums are order-sensitive, which is why touched fragments are
// re-fit from their (retained, ordered) group aggregates rather than
// stat-merged; the mergeable regress.ConstStats.Merge / LinStats exist
// for callers that can accept reassociated sums. See DESIGN.md §11.
//
// Grouping keys carry no precondition: value.Compare equality is
// canonical-key equality for every value, NaN, ±0.0 and integers past
// 2⁵³ included, so routing by Compare and grouping by key agree.
//
// With Options.Parallelism > 1 the per-grouping-set work — folding
// appended rows into the retained accumulators, routing touched groups,
// re-fitting dirty fragments — fans across a shared pool. Grouping sets
// are fully independent retained states, and each one still folds the
// appended rows in row order, so the maintained set is identical to the
// sequential maintainer's at any width.
//
// A Maintainer is not safe for concurrent use.
type Maintainer struct {
	tab    engine.MutableRelation
	opt    Options
	synced int    // rows folded so far
	epoch  uint64 // table epoch at last CatchUp
	gsets  []*gSet
	cands  []*mCand // every candidate, sorted by key
}

// gSet is the retained state of one grouping attribute set: its grouped
// table, column-wise. Group gi (first-appearance order == grouped-row
// index) owns keys[gi*len(attrs):], accs[gi*len(aggs):] and entry gi of
// every per-group column.
type gSet struct {
	attrs  []string
	colIdx []int // table column per attr
	aggs   []engine.AggSpec
	aggIdx []int // table column per aggregate argument (-1 for star)
	hasLin bool

	keys    []value.V         // key values from each group's first row, as GroupBy emits
	accs    []engine.AggAccum // resumable aggregate state
	state   []uint8           // gTouched | gFresh
	y       []numCol          // per aggregate: Result() as of the last CatchUp
	x       []numCol          // per attr: the key value (kept only when a Lin candidate reads it)
	lookup  map[string]int32
	splits  []*mSplit
	touched []int32 // groups touched by the current batch

	// Scratch reused across folds and fragment re-fits. Per grouping set
	// (not per maintainer) so CatchUp can fan grouping sets across a
	// pool.
	ys     []float64
	xs     []float64
	keyBuf []byte
	stats  regress.ConstStats
	lin    regress.LinScratch
}

const (
	gTouched uint8 = 1 << iota // folded into by the current batch
	gFresh                     // created by the current batch
)

// numCol is one decoded column over a grouping set's groups, mirroring
// the engine's flat column decode: the float64 payload of each numeric
// value, and whether the value was numeric at all.
type numCol struct {
	f  []float64
	ok []bool
}

func (c *numCol) set(gi int32, v value.V) { c.f[gi], c.ok[gi] = v.AsFloat() }

func (c *numCol) push(v value.V) {
	f, ok := v.AsFloat()
	c.f, c.ok = append(c.f, f), append(c.ok, ok)
}

// mSplit is one (F, V) split of a grouping set.
type mSplit struct {
	f, v []string // sorted, as Pattern carries them
	fPos []int    // positions into gSet.attrs, sorted-F order
	vPos []int    // positions into gSet.attrs, sorted-V order
	// seqPos orders observations within a fragment: the predictor
	// attributes in the order of the sort order that first tested this
	// split, exactly as the miner's permutation sort left them.
	seqPos  []int
	frags   []*mFrag
	fragIdx map[string]int32 // F-key → index into frags
	fragOf  []int32          // per group: index of its fragment, so only fresh groups build a key
	dirty   []*mFrag
	cands   []*mCand
	numSupp []int // per aggregate: fragments with supported[ai] set
}

// mFrag is one fragment of a split: the groups it contains, in
// observation order, plus the per-aggregate support flag that feeds the
// λ denominator.
type mFrag struct {
	key       string
	groups    []int32
	supported []bool // per aggregate: numeric and |groups| ≥ δ
	dirty     bool
}

// mCand is one (aggregate, model) candidate of a split.
type mCand struct {
	p pattern.Pattern
	// key caches p.Key() — the canonical identity Patterns and CandStats
	// order by and admission pushes match on. Candidates are fixed for
	// the maintainer's lifetime, so it is derived (two sorts plus string
	// joins) and sorted on once, at construction.
	key    string
	sp     *mSplit
	agg    int
	model  regress.ModelType
	locals map[string]*pattern.LocalModel
}

// NewMaintainer builds the retained mining state for tab under opt and
// performs the initial full fit; Patterns then equals ARPMine(tab, opt).
// tab is any mutable relation — the in-memory Table or a segment-backed
// SegTable, whose appended rows stream in via ScanRows without ever
// materializing the sealed segments. FD pruning is not maintainable (an
// FD detected on a prefix of the data can be violated by later rows,
// silently changing which candidates were skipped), so opt.UseFDs is
// rejected.
func NewMaintainer(tab engine.MutableRelation, opt Options) (*Maintainer, error) {
	opt, err := opt.withDefaults(tab)
	if err != nil {
		return nil, err
	}
	if opt.UseFDs {
		return nil, fmt.Errorf("mining: FD pruning is not supported by the incremental maintainer")
	}
	m := &Maintainer{tab: tab, opt: opt}
	attrPos := func(attrs []string, a string) int {
		for i, b := range attrs {
			if b == a {
				return i
			}
		}
		return -1
	}
	for size := 2; size <= opt.MaxPatternSize && size <= len(opt.Attributes); size++ {
		for _, g := range combinations(opt.Attributes, size) {
			aggs := aggSpecsFor(tab, opt.AggFuncs, g)
			gs := &gSet{
				attrs:  g,
				aggs:   aggs,
				aggIdx: make([]int, len(aggs)),
				y:      make([]numCol, len(aggs)),
				x:      make([]numCol, len(g)),
				lookup: make(map[string]int32),
			}
			gs.colIdx, err = tab.Schema().Indices(g)
			if err != nil {
				return nil, err
			}
			for i, a := range aggs {
				gs.aggIdx[i] = -1
				if !a.IsStar() {
					gs.aggIdx[i] = tab.Schema().Index(a.Arg)
				}
			}
			// Replicate the miner's split enumeration: iterate the sort-
			// order cover and keep, per (F, V) pair, the predictor sequence
			// of the first order that tests it.
			tested := make(map[string]bool)
			for _, s := range sortOrderCover(g) {
				for k := 1; k < len(s); k++ {
					f, v := s[:k], s[k:]
					pk := pairKey(f, v)
					if tested[pk] {
						continue
					}
					tested[pk] = true
					sp := &mSplit{
						f:       pattern.SortedCopy(f),
						v:       pattern.SortedCopy(v),
						fragIdx: make(map[string]int32),
						numSupp: make([]int, len(aggs)),
					}
					for _, a := range sp.f {
						sp.fPos = append(sp.fPos, attrPos(g, a))
					}
					for _, a := range sp.v {
						sp.vPos = append(sp.vPos, attrPos(g, a))
					}
					for _, a := range v {
						sp.seqPos = append(sp.seqPos, attrPos(g, a))
					}
					for ai, a := range aggs {
						for _, mt := range opt.Models {
							p := pattern.Pattern{F: sp.f, V: sp.v, Agg: a, Model: mt}
							if err := p.Validate(); err != nil {
								return nil, err
							}
							if mt == regress.Lin {
								gs.hasLin = true
							}
							sp.cands = append(sp.cands, &mCand{
								p: p, key: p.Key(), sp: sp, agg: ai, model: mt,
								locals: make(map[string]*pattern.LocalModel),
							})
						}
					}
					m.cands = append(m.cands, sp.cands...)
					gs.splits = append(gs.splits, sp)
				}
			}
			m.gsets = append(m.gsets, gs)
		}
	}
	sort.Slice(m.cands, func(i, j int) bool { return m.cands[i].key < m.cands[j].key })
	if err := m.CatchUp(); err != nil {
		return nil, err
	}
	return m, nil
}

// Table returns the relation the maintainer tracks.
func (m *Maintainer) Table() engine.MutableRelation { return m.tab }

// Synced returns the number of table rows folded into the retained
// state, and the table epoch observed at that point.
func (m *Maintainer) Synced() (rows int, epoch uint64) { return m.synced, m.epoch }

// Candidates reports the ARPMine-equivalent candidate count: every
// (F, V, aggregate, model) combination the enumeration examines.
func (m *Maintainer) Candidates() int { return len(m.cands) }

// Options returns the normalized mining options the maintainer runs
// with.
func (m *Maintainer) Options() Options { return m.opt }

// Apply appends rows to the table and folds them into the pattern set.
func (m *Maintainer) Apply(rows []value.Tuple) error {
	if err := m.tab.AppendRows(rows); err != nil {
		return err
	}
	return m.CatchUp()
}

// CatchUp folds any table rows appended since the last sync (by this
// maintainer or by other appenders) and re-fits the touched fragments.
// Rows already folded must not have been reordered or rewritten; only
// appends are maintainable.
func (m *Maintainer) CatchUp() error {
	n := m.tab.NumRows()
	if n < m.synced {
		return fmt.Errorf("mining: table shrank from %d to %d rows; maintainer state is stale", m.synced, n)
	}
	if n == m.synced {
		m.epoch = m.tab.Epoch()
		return nil
	}
	pool, detach := runPool(m.tab, m.opt.Parallelism)
	defer detach()

	// One streaming pass over the appended range folds every grouping
	// set — segment-backed relations decode each new row once, not once
	// per grouping set. Rows arrive through the scanner's reused buffer,
	// so they are slab-copied into bounded chunks; each flush fans the
	// grouping sets across the pool, every set folding the chunk's rows
	// in row order — the same per-set fold the sequential pass performs.
	// Chunking keeps the initial full catch-up memory-bounded (the table
	// is never buffered whole).
	width := len(m.tab.Schema())
	chunkRows := min(n-m.synced, maintainChunkRows)
	chunk := make([]value.Tuple, 0, chunkRows)
	slab := make([]value.V, 0, chunkRows*width)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		err := pool.ForEach("mine:maintain-fold", len(m.gsets), func(i int) error {
			gs := m.gsets[i]
			for _, row := range chunk {
				gs.foldRow(row)
			}
			return nil
		})
		chunk, slab = chunk[:0], slab[:0]
		return err
	}
	err := m.tab.ScanRows(m.synced, n, func(row value.Tuple) error {
		slab = append(slab, row...)
		chunk = append(chunk, slab[len(slab)-width:len(slab):len(slab)])
		if len(chunk) == chunkRows {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}

	err = pool.ForEach("mine:maintain-refit", len(m.gsets), func(i int) error {
		gs := m.gsets[i]
		// Decode each touched group's aggregates once per batch; every
		// split's re-fit below reads only the flat columns.
		na := len(gs.aggs)
		for _, gi := range gs.touched {
			for ai := range gs.y {
				gs.y[ai].set(gi, gs.accs[int(gi)*na+ai].Result())
			}
		}
		for _, sp := range gs.splits {
			gs.routeTouched(sp)
			for _, fr := range sp.dirty {
				gs.refit(m.opt, sp, fr)
				fr.dirty = false
			}
			sp.dirty = sp.dirty[:0]
		}
		for _, gi := range gs.touched {
			gs.state[gi] = 0
		}
		gs.touched = gs.touched[:0]
		return nil
	})
	if err != nil {
		return err
	}
	m.synced = n
	m.epoch = m.tab.Epoch()
	return nil
}

// maintainChunkRows bounds how many appended rows CatchUp buffers
// between parallel folds.
var maintainChunkRows = 4096

// foldRow routes one appended row to its group in gs (creating new
// groups in first-appearance order) and folds it into the aggregate
// accumulators. Only value.V structs are retained (copied into the key
// slab), so the row may live in a reused chunk slab.
func (gs *gSet) foldRow(row value.Tuple) {
	gs.keyBuf = gs.keyBuf[:0]
	for _, ci := range gs.colIdx {
		gs.keyBuf = row[ci].AppendKey(gs.keyBuf)
	}
	gi, ok := gs.lookup[string(gs.keyBuf)]
	if !ok {
		gi = int32(len(gs.state))
		for i, ci := range gs.colIdx {
			gs.keys = append(gs.keys, row[ci])
			if gs.hasLin {
				gs.x[i].push(row[ci])
			}
		}
		for ai, a := range gs.aggs {
			gs.accs = append(gs.accs, engine.NewAggAccum(a))
			gs.y[ai].push(value.NewNull()) // decoded once the batch is folded
		}
		gs.state = append(gs.state, gFresh)
		gs.lookup[string(gs.keyBuf)] = gi
	}
	if gs.state[gi]&gTouched == 0 {
		gs.state[gi] |= gTouched
		gs.touched = append(gs.touched, gi)
	}
	accs := gs.accs[int(gi)*len(gs.aggs):]
	for ai, ci := range gs.aggIdx {
		var arg value.V
		if ci >= 0 {
			arg = row[ci]
		}
		accs[ai].Add(arg)
	}
}

// routeTouched maps every touched group to its fragment in sp, inserting
// fresh groups at their observation-order position, and collects the
// dirty fragments.
func (gs *gSet) routeTouched(sp *mSplit) {
	w := len(gs.attrs)
	for _, gi := range gs.touched {
		// Fresh groups sit in touched in creation order, so the append
		// below lands at fragOf[gi].
		if gs.state[gi]&gFresh != 0 {
			gs.keyBuf = gs.keyBuf[:0]
			for _, p := range sp.fPos {
				gs.keyBuf = gs.keys[int(gi)*w+p].AppendKey(gs.keyBuf)
			}
			fi, ok := sp.fragIdx[string(gs.keyBuf)]
			if !ok {
				fi = int32(len(sp.frags))
				sp.frags = append(sp.frags, &mFrag{key: string(gs.keyBuf), supported: make([]bool, len(gs.aggs))})
				sp.fragIdx[sp.frags[fi].key] = fi
			}
			sp.fragOf = append(sp.fragOf, fi)
			fr := sp.frags[fi]
			// Insert at the observation-order position: predictor-sequence
			// values under value.Compare, ties after (the fresh group's
			// grouped-row index is larger than every existing one's).
			pos := sort.Search(len(fr.groups), func(i int) bool {
				return gs.obsLess(sp, gi, fr.groups[i])
			})
			fr.groups = append(fr.groups, 0)
			copy(fr.groups[pos+1:], fr.groups[pos:])
			fr.groups[pos] = gi
		}
		if fr := sp.frags[sp.fragOf[gi]]; !fr.dirty {
			fr.dirty = true
			sp.dirty = append(sp.dirty, fr)
		}
	}
}

// obsLess orders groups within a fragment: by the split's predictor
// sequence under value.Compare, then by grouped-row index — the order
// the miner's stable permutation sort visits them in.
func (gs *gSet) obsLess(sp *mSplit, a, b int32) bool {
	w := len(gs.attrs)
	ka, kb := gs.keys[int(a)*w:], gs.keys[int(b)*w:]
	for _, p := range sp.seqPos {
		if c := value.Compare(ka[p], kb[p]); c != 0 {
			return c < 0
		}
	}
	return a < b
}

// refit re-evaluates every candidate of sp on fragment fr, replicating
// SharedFitter.flushFragment over the fragment's groups in observation
// order: same gather order, same ConstStats / FitLinInto arithmetic,
// same threshold gates — so the resulting local models are bitwise
// those of a cold re-mine. Observations and predictors are gathered
// from the decoded columns, never from accumulators or key values.
func (gs *gSet) refit(opt Options, sp *mSplit, fr *mFrag) {
	n := len(fr.groups)
	d := len(sp.v)

	numericX := true
	xs := gs.xs[:0]
	if gs.hasLin {
	gather:
		for _, gi := range fr.groups {
			for _, p := range sp.vPos {
				if !gs.x[p].ok[gi] {
					numericX = false
					break gather
				}
				xs = append(xs, gs.x[p].f[gi])
			}
		}
		gs.xs = xs
	}

	var frag value.Tuple
	nModels := len(opt.Models)
	for ai := range gs.aggs {
		numericY := true
		gs.stats.Reset()
		ys := gs.ys[:0]
		yf, yok := gs.y[ai].f, gs.y[ai].ok
		for _, gi := range fr.groups {
			if !yok[gi] {
				numericY = false
				break
			}
			gs.stats.Add(yf[gi])
			ys = append(ys, yf[gi])
		}
		gs.ys = ys
		if supp := numericY && n >= opt.Thresholds.LocalSupport; supp != fr.supported[ai] {
			fr.supported[ai] = supp
			if supp {
				sp.numSupp[ai]++
			} else {
				sp.numSupp[ai]--
			}
		}

		for mi := 0; mi < nModels; mi++ {
			cs := sp.cands[ai*nModels+mi]
			if !fr.supported[ai] {
				delete(cs.locals, fr.key)
				continue
			}
			isLin := cs.model == regress.Lin
			if isLin && !numericX {
				delete(cs.locals, fr.key)
				continue
			}
			var gof, cmean float64
			var ferr error
			if isLin {
				gof, ferr = regress.FitLinInto(xs[:n*d], d, ys, &gs.lin)
			} else {
				cmean, gof, ferr = gs.stats.FitParams()
			}
			if ferr != nil || gof < opt.Thresholds.Theta {
				delete(cs.locals, fr.key)
				continue
			}
			var model regress.Model
			if isLin {
				model = gs.lin.Model(gof)
			} else {
				model = regress.NewConst(cmean, gof)
			}
			if frag == nil {
				first := gs.keys[int(fr.groups[0])*len(gs.attrs):]
				frag = make(value.Tuple, len(sp.fPos))
				for i, p := range sp.fPos {
					frag[i] = first[p]
				}
			}
			lm := &pattern.LocalModel{Frag: frag, Model: model, Support: n}
			if isLin {
				for i, y := range ys {
					dev := y - model.Predict(xs[i*d:(i+1)*d])
					if dev > lm.MaxPosDev {
						lm.MaxPosDev = dev
					}
					if dev < lm.MaxNegDev {
						lm.MaxNegDev = dev
					}
				}
			} else {
				mean := model.Predict(nil)
				if dev := gs.stats.Max - mean; dev > 0 {
					lm.MaxPosDev = dev
				}
				if dev := gs.stats.Min - mean; dev < 0 {
					lm.MaxNegDev = dev
				}
			}
			cs.locals[fr.key] = lm
		}
	}
}

// Patterns assembles the globally-holding pattern set from the retained
// state: the same Definition-4 gates, counters, and deviation extremes
// a cold ARPMine run computes, sorted by pattern key. The returned
// Mined values are fresh (maps copied); the LocalModels are shared but
// immutable — re-fits replace them, never mutate.
func (m *Maintainer) Patterns() []*pattern.Mined {
	th := m.opt.Thresholds
	var out []*pattern.Mined
	for _, cs := range m.cands {
		good, supp := len(cs.locals), cs.sp.numSupp[cs.agg]
		if good == 0 || supp == 0 || good < th.GlobalSupport {
			continue
		}
		conf := float64(good) / float64(supp)
		if conf < th.Lambda {
			continue
		}
		mined := &pattern.Mined{
			Pattern:      cs.p,
			Locals:       make(map[string]*pattern.LocalModel, good),
			NumFragments: len(cs.sp.frags),
			NumSupported: supp,
			Confidence:   conf,
		}
		for k, lm := range cs.locals {
			mined.Locals[k] = lm
			if lm.MaxPosDev > mined.MaxPosDev {
				mined.MaxPosDev = lm.MaxPosDev
			}
			if lm.MaxNegDev < mined.MaxNegDev {
				mined.MaxNegDev = lm.MaxNegDev
			}
		}
		out = append(out, mined)
	}
	return out
}

// CandStat is the raw per-candidate evidence behind the Definition-4
// global gates, before any threshold is applied: how many fragments the
// candidate's split produced, how many were supported (≥ LocalSupport
// rows, numeric aggregate), and how many of those yielded a good local
// fit (GoF ≥ Theta). A sharded deployment mines each shard with
// loosened global thresholds (λ=0, Δ=1), sums these counters across
// shards — fragments are disjoint between shards when the shard key is
// part of every F — and applies the real λ/Δ gates to the totals,
// reproducing single-node admission exactly.
type CandStat struct {
	// Key is the candidate pattern's canonical identity (pattern.Key()).
	Key string
	// Good counts fragments with a passing local fit. Zero is
	// meaningful: a shard holding supported-but-unfit fragments still
	// contributes to the global confidence denominator.
	Good int
	// Supported counts fragments meeting the local support gate.
	Supported int
	// Fragments counts all fragments of the candidate's (F, V) split.
	Fragments int
}

// CandStats reports the raw evidence for every candidate the miner
// enumerated — including candidates Patterns() would gate out — sorted
// by pattern key.
func (m *Maintainer) CandStats() []CandStat {
	out := make([]CandStat, len(m.cands))
	for i, cs := range m.cands {
		out[i] = CandStat{
			Key:       cs.key,
			Good:      len(cs.locals),
			Supported: cs.sp.numSupp[cs.agg],
			Fragments: len(cs.sp.frags),
		}
	}
	return out
}
