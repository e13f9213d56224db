package mining

import (
	"fmt"
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
// aimed at the states a fragment's running count statistics can get
// wrong: rows of the rarest full groups (a unique-minimum group grows,
// or one of several tied at the minimum), fresh groups whose predictor
// falls between existing ones (inserted mid-fragment), new g values (a
// batch creates fragments), and, when asked, a string in x (a fragment
// that could fit Lin turns Lin-free).
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
		switch k := r.Intn(10); {
		case k < 4 && len(s.rows) > 0:
			row = s.rarest()
		case k < 7:
			row = s.row()
		case k < 9:
			row = s.row()
			row[1] = value.NewInt(int64(1 + 2*r.Intn(5))) // between the even x values
		default:
			row = s.row()
			row[0] = value.NewString(fmt.Sprintf("n%d", s.newG))
			s.newG++
		}
		rows = append(rows, row)
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
// batch, and pins it to the cold pipeline after each. The string lands
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

// TestCountStatsGuard: count statistics are kept only for grouping sets
// whose every aggregate is count(*), over relations below 2²⁶ rows; a
// Maintainer over count(*) and sum keeps none on the sum's sets.
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
			if sp.st != nil {
				t.Fatalf("grouping %v over %v keeps count statistics", gs.attrs, gs.aggs)
			}
		}
		if gs.work.fromStats != 0 {
			t.Fatalf("grouping %v over %v re-fit %d fragments from count statistics", gs.attrs, gs.aggs, gs.work.fromStats)
		}
	}
	if withSum == 0 {
		t.Fatal("no grouping carries a sum; the check is vacuous")
	}
}

// TestCountStreamsReachKeptStates: the count streams the differential
// runs reach the states it is aimed at — fragments re-fit from kept
// statistics, a grown minimum forcing an extremes pass, and a fragment
// of a split over x that starts keeping statistics once a string
// arrives in x.
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
	keptOverX := func() int {
		n := 0
		for _, gs := range m.gsets {
			for _, sp := range gs.splits {
				if slices.Equal(sp.v, []string{"x"}) {
					for fi := range sp.st {
						if sp.kept(int32(fi)) {
							n++
						}
					}
				}
			}
		}
		return n
	}
	if n := keptOverX(); n != 0 {
		t.Fatalf("%d fragments over a numeric x keep statistics before any string", n)
	}
	built := m.work()
	for b := 0; b < 4; b++ {
		if err := m.Apply(s.batch(15, b == 2)); err != nil {
			t.Fatal(err)
		}
	}
	w := m.work()
	if w.fromStats == built.fromStats || w.extremes == built.extremes || keptOverX() == 0 {
		t.Fatalf("stream re-fit %d fragments from statistics, ran %d extremes passes, keeps %d fragments over x",
			w.fromStats-built.fromStats, w.extremes-built.extremes, keptOverX())
	}
}
