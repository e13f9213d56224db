package mining

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cape/internal/engine"
	"cape/internal/regress"
	"cape/internal/value"
)

// countSchema is the count-only stream fixture: two string columns (a
// split whose V holds one can never fit Lin), an untyped predictor x
// that is numeric until a string arrives, and an Int year.
var countSchema = engine.Schema{
	{Name: "g", Kind: value.String},
	{Name: "x", Kind: value.Null},
	{Name: "h", Kind: value.String},
	{Name: "yr", Kind: value.Int},
}

// countStream generates a count-only append stream over countSchema,
// aimed at the states a fragment's running count statistics and Lin
// moments can get wrong: rows of the rarest full groups (a unique-minimum
// group grows, or one of several tied at the minimum), fresh groups whose
// predictor falls between existing ones (inserted mid-fragment), new g
// values (a batch creates fragments), negative x, x at the moment guard
// (±2¹³) and just past it, a non-integer Float x and a Float x of an Int
// value's class, a block of rows whose counts rise with x (a fragment's
// R² crosses θ), and, when asked, a string in x (a fragment that could
// fit Lin turns Lin-free).
type countStream struct {
	rng    *rand.Rand
	counts map[string]int // full-row key → rows so far
	rows   []value.Tuple  // one representative per full-row key, first-seen order
	newG   int
}

func newCountStream(seed int64) *countStream {
	return &countStream{rng: rand.New(rand.NewSource(seed)), counts: make(map[string]int)}
}

// row draws one row of the base domain: x even in [0, 10].
func (s *countStream) row() value.Tuple {
	r := s.rng
	return value.Tuple{
		value.NewString(fmt.Sprintf("g%d", r.Intn(4))),
		value.NewInt(int64(2 * r.Intn(6))),
		value.NewString([]string{"p", "q", "r"}[r.Intn(3)]),
		value.NewInt(int64(2000 + r.Intn(4))),
	}
}

// note records rows as appended.
func (s *countStream) note(rows []value.Tuple) {
	for _, row := range rows {
		k := string(row.AppendKey(nil))
		if s.counts[k] == 0 {
			s.rows = append(s.rows, row)
		}
		s.counts[k]++
	}
}

// rarest returns a row of a full group holding the fewest rows, chosen
// at random among the ties.
func (s *countStream) rarest() value.Tuple {
	least, ties := 0, []value.Tuple(nil)
	for _, row := range s.rows {
		c := s.counts[string(row.AppendKey(nil))]
		switch {
		case ties == nil || c < least:
			least, ties = c, []value.Tuple{row}
		case c == least:
			ties = append(ties, row)
		}
	}
	return ties[s.rng.Intn(len(ties))].Clone()
}

// initial returns n base rows.
func (s *countStream) initial(n int) []value.Tuple {
	rows := make([]value.Tuple, n)
	for i := range rows {
		rows[i] = s.row()
	}
	s.note(rows)
	return rows
}

// batch returns the next n rows; withString puts a string in x of one
// existing g's rows.
func (s *countStream) batch(n int, withString bool) []value.Tuple {
	r := s.rng
	rows := make([]value.Tuple, 0, n+2)
	for len(rows) < n {
		var row value.Tuple
		switch k := r.Intn(40); {
		case k < 16 && len(s.rows) > 0:
			row = s.rarest()
		case k < 28:
			row = s.row()
		case k < 34:
			row = s.row()
			row[1] = value.NewInt(int64(1 + 2*r.Intn(5))) // between the even x values
		case k < 36:
			row = s.row()
			row[0] = value.NewString(fmt.Sprintf("n%d", s.newG))
			s.newG++
		case k < 37:
			row = s.row()
			row[1] = value.NewInt(int64(-1 - r.Intn(6)))
		case k < 38:
			row = s.row()
			row[1] = value.NewFloat(float64(2 * r.Intn(6))) // the class of an Int x
		case k < 39:
			row = s.row()
			row[1] = value.NewInt([]int64{1 << 13, -1 << 13, 1<<13 + 1, -1<<13 - 1}[r.Intn(4)])
		default:
			row = s.row()
			row[1] = value.NewFloat(float64(r.Intn(10)) + 0.5)
		}
		rows = append(rows, row)
	}
	if r.Intn(3) == 0 {
		// Counts rising with x in one (g, h, yr): x rows at each even x.
		base := s.row()
		for x := int64(2); x <= 10; x += 2 {
			for i := int64(0); i < x; i++ {
				rows = append(rows, value.Tuple{base[0], value.NewInt(x), base[2], base[3]})
			}
		}
	}
	if withString {
		g := value.NewString(fmt.Sprintf("g%d", r.Intn(4)))
		for _, h := range []string{"p", "q"} {
			rows = append(rows, value.Tuple{g, value.NewString("n/a"), value.NewString(h), value.NewInt(2001)})
		}
	}
	s.note(rows)
	return rows
}

// countOpts mines count(*) alone over countSchema, under the given
// models, at the given width.
func countOpts(models []regress.ModelType, par int) Options {
	opt := lenientOpts()
	opt.AggFuncs = []engine.AggFunc{engine.Count}
	opt.Models = models
	opt.Parallelism = par
	return opt
}

// requireCountsSameAsCold pins the maintained set to the cold pipeline
// over the maintainer's current rows: Patterns bytes against ARPMine,
// CandStats against a Maintainer freshly built over the same relation.
func requireCountsSameAsCold(t *testing.T, label string, m *Maintainer, opt Options) {
	t.Helper()
	requireSameAsRemine(t, label, m, opt)
	requireKeptExact(t, m)
	fresh, err := NewMaintainer(m.Table(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.CandStats(), fresh.CandStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: maintained CandStats diverge from a cold build\nmaintained: %v\ncold: %v", label, got, want)
	}
}

// runCountStream builds a Maintainer over the stream's initial rows —
// a dense Table, or a SegTable of two sealed segments plus a tail that
// is compacted after the second batch — appends the stream batch by
// batch, and pins it to the cold pipeline, and every kept statistic and
// moment to its groups, after each. The string lands
// in x in batch stringAt (never when negative). It returns how many
// patterns the final set holds.
func runCountStream(t *testing.T, seed int64, seg bool, opt Options, batches, batchRows, stringAt int) int {
	t.Helper()
	s := newCountStream(seed)
	tab := engine.NewTable(countSchema)
	if err := tab.AppendRows(s.initial(120 + s.rng.Intn(120))); err != nil {
		t.Fatal(err)
	}
	var rel engine.MutableRelation = tab
	var st *engine.SegTable
	if seg {
		st = segTableFrom(t, tab, 2, 15)
		defer st.Close()
		rel = st
	}
	m, err := NewMaintainer(rel, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireCountsSameAsCold(t, "initial", m, opt)
	for b := 0; b < batches; b++ {
		if err := m.Apply(s.batch(batchRows, b == stringAt)); err != nil {
			t.Fatal(err)
		}
		requireCountsSameAsCold(t, fmt.Sprintf("batch %d", b), m, opt)
		if st != nil && b == 1 {
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := m.CatchUp(); err != nil {
				t.Fatal(err)
			}
			requireCountsSameAsCold(t, "post-compact", m, opt)
		}
	}
	return len(m.Patterns())
}

// TestMaintainerCountStreams is the count-only differential: randomized
// count(*) append streams (countStream) pin the maintained set to the
// cold pipeline after every batch, over a dense Table and a SegTable
// across a Compact, at widths 1 and 4, with Lin among the models (only
// splits whose V holds a string, or fragments that saw one, are
// Lin-free) and without it (every split is).
func TestMaintainerCountStreams(t *testing.T) {
	origChunk := maintainChunkRows
	maintainChunkRows = 16
	defer func() { maintainChunkRows = origChunk }()
	for _, models := range [][]regress.ModelType{{regress.Const, regress.Lin}, {regress.Const}} {
		for _, seg := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v seg=%v par=%d", models, seg, par), func(t *testing.T) {
					for seed := int64(1); seed <= 2; seed++ {
						if n := runCountStream(t, seed, seg, countOpts(models, par), 6, 4+int(seed)*7, 3); n == 0 {
							t.Fatalf("seed %d mined no patterns; the identity checks are vacuous", seed)
						}
					}
				})
			}
		}
	}
}

// FuzzMaintainerCounts appends a random count-only stream — batches
// batches of batchRows rows each, the string in x arriving mid-stream —
// to a small table and checks the maintained set against the cold
// pipeline after every batch.
func FuzzMaintainerCounts(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(10))
	f.Add(int64(7), uint8(2), uint8(1))
	f.Add(int64(42), uint8(6), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, batches, batchRows uint8) {
		nb, nr := int(batches%8), 1+int(batchRows%64)
		models := []regress.ModelType{regress.Const, regress.Lin}
		if seed%3 == 0 {
			models = models[:1]
		}
		par := 1
		if seed&4 != 0 {
			par = 4
		}
		runCountStream(t, seed, seed%2 == 0, countOpts(models, par), nb, nr, nb/2)
	})
}

// TestCountStatsGuard: count statistics and Lin moments are kept only
// for grouping sets whose every aggregate is count(*), over relations
// below 2²⁶ rows; a Maintainer over count(*) and sum keeps none on the
// sum's sets.
func TestCountStatsGuard(t *testing.T) {
	count, sum := engine.AggSpec{Func: engine.Count}, engine.AggSpec{Func: engine.Sum, Arg: "x"}
	for _, tc := range []struct {
		aggs []engine.AggSpec
		rows int
		want bool
	}{
		{[]engine.AggSpec{count}, 0, true},
		{[]engine.AggSpec{count}, maxStatRows - 1, true},
		{[]engine.AggSpec{count}, maxStatRows, false},
		{[]engine.AggSpec{count}, 1 << 40, false},
		{[]engine.AggSpec{count, count}, 100, true},
		{[]engine.AggSpec{count, sum}, 100, false},
		{[]engine.AggSpec{{Func: engine.Avg, Arg: "x"}}, 100, false},
		{[]engine.AggSpec{{Func: engine.Min, Arg: "x"}}, 100, false},
		{nil, 100, false},
	} {
		if got := countStatsExact(tc.aggs, tc.rows); got != tc.want {
			t.Errorf("countStatsExact(%v, %d) = %v, want %v", tc.aggs, tc.rows, got, tc.want)
		}
	}
	if maxStatRows != 1<<26 {
		t.Fatalf("maxStatRows = %d, want 2²⁶", maxStatRows)
	}

	opt := countOpts([]regress.ModelType{regress.Const}, 1)
	opt.AggFuncs = []engine.AggFunc{engine.Count, engine.Sum}
	s := newCountStream(1)
	tab := engine.NewTable(countSchema)
	if err := tab.AppendRows(s.initial(100)); err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(s.batch(20, false)); err != nil {
		t.Fatal(err)
	}
	withSum := 0
	for _, gs := range m.gsets {
		if countStatsExact(gs.aggs, tab.NumRows()) {
			continue
		}
		withSum++
		for _, sp := range gs.splits {
			if sp.st != nil || sp.mo != nil {
				t.Fatalf("grouping %v over %v keeps count statistics or Lin moments", gs.attrs, gs.aggs)
			}
		}
		if gs.work.fromStats != 0 || gs.work.fromMoments != 0 {
			t.Fatalf("grouping %v over %v re-fit %d fragments from count statistics and %d from moments",
				gs.attrs, gs.aggs, gs.work.fromStats, gs.work.fromMoments)
		}
	}
	if withSum == 0 {
		t.Fatal("no grouping carries a sum; the check is vacuous")
	}
}

// TestCountStreamsReachKeptStates: the count streams the differential
// runs reach the states it is aimed at — fragments re-fit from kept
// statistics, a grown minimum forcing an extremes pass, a fragment of a
// split over x that starts keeping statistics without moments once a
// string arrives in x, fragments re-fit from kept Lin moments, a Lin
// model holding on one that keeps them, a fragment whose Lin hold
// appears or disappears while it keeps them (its R² crossed θ), and
// fragments over a numeric x that walk because a value broke the
// moment guard.
func TestCountStreamsReachKeptStates(t *testing.T) {
	opt := countOpts([]regress.ModelType{regress.Const, regress.Lin}, 1)
	s := newCountStream(1)
	tab := engine.NewTable(countSchema)
	if err := tab.AppendRows(s.initial(200)); err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	type frag struct {
		sp *mSplit
		fi int
	}
	// linHeld notes, per fragment keeping Lin moments, whether a Lin
	// candidate holds on it.
	linHeld := func() map[frag]bool {
		held := make(map[frag]bool)
		for _, gs := range m.gsets {
			for _, sp := range gs.splits {
				for fi := range sp.st {
					if !sp.kept(int32(fi)) || !sp.frags[fi].moments {
						continue
					}
					held[frag{sp, fi}] = false
					for _, cs := range sp.cands {
						if cs.p.Model == regress.Lin && fi < len(cs.locals) && cs.locals[fi] != nil {
							held[frag{sp, fi}] = true
						}
					}
				}
			}
		}
		return held
	}
	// overX counts the fragments of splits over x that keep statistics
	// without moments, and those that walk.
	overX := func() (linFree, walking int) {
		for _, gs := range m.gsets {
			for _, sp := range gs.splits {
				if !slices.Equal(sp.v, []string{"x"}) {
					continue
				}
				for fi := range sp.frags {
					switch {
					case !sp.kept(int32(fi)):
						walking++
					case !sp.frags[fi].moments:
						linFree++
					}
				}
			}
		}
		return linFree, walking
	}
	if n, _ := overX(); n != 0 {
		t.Fatalf("%d fragments over a numeric x keep statistics without Lin moments before any string", n)
	}
	built, prev := m.work(), linHeld()
	flips, holds := 0, 0
	for b := 0; b < 6; b++ {
		if err := m.Apply(s.batch(15, b == 2)); err != nil {
			t.Fatal(err)
		}
		cur := linHeld()
		for f, h := range cur {
			if was, ok := prev[f]; ok && was != h {
				flips++
			}
			if h {
				holds++
			}
		}
		prev = cur
	}
	w := m.work()
	linFree, walking := overX()
	if w.fromStats == built.fromStats || w.extremes == built.extremes || w.fromMoments == built.fromMoments ||
		linFree == 0 || walking == 0 || holds == 0 || flips == 0 {
		t.Fatalf("stream re-fit %d fragments from statistics and %d from moments, ran %d extremes passes; over x %d fragments keep statistics without moments and %d walk; Lin held %d times on fragments keeping moments, flipping %d times",
			w.fromStats-built.fromStats, w.fromMoments-built.fromMoments, w.extremes-built.extremes, linFree, walking, holds, flips)
	}
}

// groupMoments recomputes fragment fr's Lin moments over its groups'
// predictor values and counts, in observation order.
func groupMoments(gs *gSet, sp *mSplit, fr *mFrag) regress.LinMoments {
	keys := gs.grp.Keys()
	var xs, ys []float64
	for _, gi := range fr.groups {
		for _, ci := range sp.vPos {
			xs = append(xs, keys.Col(ci).F64[gi])
		}
		ys = append(ys, gs.y[0].F[gi])
	}
	var mo regress.LinMoments
	mo.Accumulate(xs, len(sp.vPos), ys)
	return mo
}

// requireKeptExact checks every fragment's kept state against its
// groups. A grouping set that may keep count statistics keeps them on
// exactly the fragments that are Lin-free (no Lin model, or a predictor
// value that is not numeric) or whose predictor values pass the moment
// guard, and Lin moments on exactly the latter; every kept statistic and
// moment equals a recomputation over the fragment's groups.
func requireKeptExact(t testing.TB, m *Maintainer) {
	t.Helper()
	hasLin := slices.Contains(m.opt.Models, regress.Lin)
	for _, gs := range m.gsets {
		exact := countStatsExact(gs.aggs, m.tab.NumRows())
		keys := gs.grp.Keys()
		for _, sp := range gs.splits {
			for fi, fr := range sp.frags {
				numeric, guarded := true, len(sp.vPos) <= regress.MaxMomentD
				for _, gi := range fr.groups {
					for _, ci := range sp.vPos {
						v := keys.Col(ci).F64[gi]
						numeric = numeric && keys.Col(ci).Num[gi]
						guarded = guarded && v == math.Trunc(v) && math.Abs(v) <= maxMomentX
					}
				}
				linFree := !hasLin || !numeric
				kept := sp.kept(int32(fi))
				if kept != (exact && (linFree || guarded)) || kept && fr.moments == linFree {
					t.Fatalf("%v/%v fragment %d: kept %v, moments %v; exact %v, Lin-free %v, guarded %v",
						sp.f, sp.v, fi, kept, fr.moments, exact, linFree, guarded)
				}
				if !kept {
					continue
				}
				var s regress.ConstStats
				for _, gi := range fr.groups {
					s.Add(gs.y[0].F[gi])
				}
				atMin := int32(0)
				for _, gi := range fr.groups {
					if gs.y[0].F[gi] == s.Min {
						atMin++
					}
				}
				st := sp.st[fi]
				exact := countStats{int32(s.N), st.atMin, s.Sum, s.SumSq, s.Min, s.Max}
				if st != exact || st.atMin != 0 && st.atMin != atMin {
					t.Fatalf("%v/%v fragment %d keeps %+v; its groups give %+v with %d at the minimum", sp.f, sp.v, fi, st, exact, atMin)
				}
				if fr.moments {
					var got regress.LinMoments
					if want := groupMoments(gs, sp, fr); *sp.moments(int32(fi), &got) != want {
						t.Fatalf("%v/%v fragment %d keeps moments %+v; its groups give %+v", sp.f, sp.v, fi, got, want)
					}
				}
			}
		}
	}
}
