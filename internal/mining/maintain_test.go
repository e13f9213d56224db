package mining

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/value"
)

// patternsJSON serializes a pattern set through the store's canonical
// encoder — the byte-equality oracle the pattern store persists.
func patternsJSON(t testing.TB, ps []*pattern.Mined) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pattern.WriteJSON(&buf, ps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameAsRemine pins the maintainer's set byte-identical to a cold
// ARPMine run over the maintainer's current table contents.
func requireSameAsRemine(t *testing.T, label string, m *Maintainer, opt Options) {
	t.Helper()
	cold, err := ARPMine(m.Table(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Candidates(); got != cold.Candidates {
		t.Errorf("%s: maintainer candidates = %d, re-mine = %d", label, got, cold.Candidates)
	}
	gotJSON := patternsJSON(t, m.Patterns())
	wantJSON := patternsJSON(t, cold.Patterns)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("%s: maintained set diverges from re-mine\nmaintained: %s\nre-mined: %s",
			label, gotJSON, wantJSON)
	}
}

// TestMaintainerMatchesInitialMine: a fresh maintainer's set equals a
// cold mine of the same table, byte for byte.
func TestMaintainerMatchesInitialMine(t *testing.T) {
	tab := testTable(t, 300)
	opt := lenientOpts()
	m, err := NewMaintainer(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAsRemine(t, "initial", m, opt)
	if got := len(m.Patterns()); got == 0 {
		t.Fatal("test fixture mined no patterns; the identity check is vacuous")
	}
	rows, epoch := m.Synced()
	if rows != tab.NumRows() || epoch != tab.Epoch() {
		t.Errorf("synced (%d, %d), want (%d, %d)", rows, epoch, tab.NumRows(), tab.Epoch())
	}
}

// TestMaintainerRejectsFDs: FD pruning depends on prefix-of-the-data
// facts and is not maintainable.
func TestMaintainerRejectsFDs(t *testing.T) {
	opt := lenientOpts()
	opt.UseFDs = true
	if _, err := NewMaintainer(testTable(t, 50), opt); err == nil {
		t.Fatal("UseFDs must be rejected")
	}
}

// TestMaintainerAppendStream drives a deterministic append stream over
// the planted-trend fixture: every batch lands new rows in existing
// fragments, creates new groups, and crosses the δ threshold upward as
// small groups accumulate rows. After each batch the maintained set is
// pinned byte-identical to a cold re-mine.
func TestMaintainerAppendStream(t *testing.T) {
	tab := testTable(t, 200)
	opt := lenientOpts()
	m, err := NewMaintainer(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	authors := []string{"a1", "a2", "a3", "a4", "a5", "a6"} // a6 is new
	venues := []string{"KDD", "ICDE", "VLDB", "WWW"}        // WWW is new
	for batch := 0; batch < 5; batch++ {
		nRows := 1 + rng.Intn(20)
		rows := make([]value.Tuple, nRows)
		for i := range rows {
			rows[i] = value.Tuple{
				value.NewString(authors[rng.Intn(len(authors))]),
				value.NewString(venues[rng.Intn(len(venues))]),
				value.NewInt(int64(2000 + rng.Intn(8))),
				value.NewInt(int64(rng.Intn(30))),
			}
		}
		if err := m.Apply(rows); err != nil {
			t.Fatal(err)
		}
		requireSameAsRemine(t, "batch "+string(rune('0'+batch)), m, opt)
	}
}

// TestMaintainerRandomizedStreams is the differential property suite:
// randomized tables and append streams — including brand-new dictionary
// values, NULL aggregate payloads (the untyped score column), fragments
// crossing δ in both directions effectively (new fragments born below
// support, old ones growing past it), and single-row batches — pin
// maintainer output == full re-mine at every step. sum and avg over the
// score column change result kind as Floats and first non-NULLs arrive;
// the fold chunk is shrunk so batches span several, and odd seeds run
// at Parallelism 4.
func TestMaintainerRandomizedStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("differential stream suite is slow")
	}
	origChunk := maintainChunkRows
	maintainChunkRows = 16
	defer func() { maintainChunkRows = origChunk }()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		tab := engine.NewTable(engine.Schema{
			{Name: "author", Kind: value.String},
			{Name: "venue", Kind: value.String},
			{Name: "year", Kind: value.Int},
			{Name: "score", Kind: value.Null}, // untyped: Int, Float, NULL mix
		})
		genRow := func() value.Tuple {
			var score value.V
			switch rng.Intn(4) {
			case 0:
				score = value.NewNull()
			case 1:
				score = value.NewFloat(math.Floor(rng.Float64()*1000)/8 + 0.5)
			default:
				score = value.NewInt(int64(rng.Intn(40)))
			}
			return value.Tuple{
				value.NewString(string(rune('A' + rng.Intn(6+int(seed))))),
				value.NewString([]string{"KDD", "ICDE", "VLDB", "SIGMOD"}[rng.Intn(2+rng.Intn(3))]),
				value.NewInt(int64(2000 + rng.Intn(5))),
				score,
			}
		}
		for i := 0; i < 80+rng.Intn(120); i++ {
			tab.MustAppend(genRow())
		}
		opt := lenientOpts()
		opt.AggFuncs = append(opt.AggFuncs, engine.Avg)
		opt.Parallelism = 1 + 3*int(seed%2)
		m, err := NewMaintainer(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameAsRemine(t, "seed init", m, opt)
		for batch := 0; batch < 4; batch++ {
			rows := make([]value.Tuple, 1+rng.Intn(30))
			for i := range rows {
				rows[i] = genRow()
			}
			if err := m.Apply(rows); err != nil {
				t.Fatal(err)
			}
			requireSameAsRemine(t, "seed stream", m, opt)
		}
	}
}

// TestMaintainerCatchUpExternalAppend: rows appended directly to the
// table (not through Apply) are folded by CatchUp — the server's path,
// where one append serves several maintained sets.
func TestMaintainerCatchUpExternalAppend(t *testing.T) {
	tab := testTable(t, 150)
	opt := lenientOpts()
	m, err := NewMaintainer(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	tab.MustAppend(value.Tuple{
		value.NewString("a2"), value.NewString("KDD"),
		value.NewInt(2003), value.NewInt(12),
	})
	if err := m.CatchUp(); err != nil {
		t.Fatal(err)
	}
	requireSameAsRemine(t, "external append", m, opt)

	// CatchUp with nothing new is a no-op that still refreshes the epoch.
	if err := m.CatchUp(); err != nil {
		t.Fatal(err)
	}
	rows, epoch := m.Synced()
	if rows != tab.NumRows() || epoch != tab.Epoch() {
		t.Errorf("synced (%d, %d) after no-op CatchUp, want (%d, %d)",
			rows, epoch, tab.NumRows(), tab.Epoch())
	}
}

// TestMaintainerDeterminism: two maintainers fed the same stream yield
// identical bytes.
func TestMaintainerDeterminism(t *testing.T) {
	opt := lenientOpts()
	build := func() []byte {
		tab := testTable(t, 200)
		m, err := NewMaintainer(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		batch := []value.Tuple{
			{value.NewString("a9"), value.NewString("KDD"), value.NewInt(2001), value.NewInt(5)},
			{value.NewString("a1"), value.NewString("VLDB"), value.NewInt(2002), value.NewInt(7)},
		}
		if err := m.Apply(batch); err != nil {
			t.Fatal(err)
		}
		return patternsJSON(t, m.Patterns())
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Fatal("maintainer output is not deterministic")
	}
}

// TestMaintainerShrunkTable: a table that lost rows since the last sync
// is unrecoverable and must be reported.
func TestMaintainerShrunkTable(t *testing.T) {
	tab := testTable(t, 50)
	m, err := NewMaintainer(tab, lenientOpts())
	if err != nil {
		t.Fatal(err)
	}
	small := testTable(t, 10)
	m.tab = small // simulate external truncation
	if err := m.CatchUp(); err == nil {
		t.Fatal("CatchUp on a shrunk table must error")
	}
}

// TestMaintainerCachedColumnHazards scripts the appends that a decoded
// observation or predictor column could get wrong, and pins the
// maintained set to a cold re-mine after every batch: an aggregate
// whose result kind flips (all-NULL sum → numeric, Int sum → Float, with
// avg riding along), fresh groups landing at the front, middle and end
// of a fragment's observation order, a string arriving in an untyped
// predictor column that was numeric so far (Lin must be dropped for
// that fragment and no other), and a batch spanning several fold
// chunks. Run over a dense table and over a SegTable with a mid-stream
// Compact, sequentially and at Parallelism 4.
func TestMaintainerCachedColumnHazards(t *testing.T) {
	origChunk := maintainChunkRows
	maintainChunkRows = 8
	defer func() { maintainChunkRows = origChunk }()

	str, num := value.NewString, value.NewInt
	row := func(g string, x, w value.V, i int) value.Tuple {
		return value.Tuple{str(g), x, str([]string{"p", "q"}[i%2]), w}
	}
	// Fragment g holds predictor points x with count(*) = x: a perfect
	// line. w is the sum/avg argument: all NULL in f1, Int elsewhere.
	base := func() *engine.Table {
		tab := engine.NewTable(engine.Schema{
			{Name: "g", Kind: value.String},
			{Name: "x", Kind: value.Null}, // untyped: Int until a string arrives
			{Name: "h", Kind: value.String},
			{Name: "w", Kind: value.Null}, // untyped: NULL, Int, Float
		})
		for _, g := range []string{"f1", "f2", "f3"} {
			for _, x := range []int64{2, 3, 5, 6, 8} {
				for i := int64(0); i < x; i++ {
					w := num(x + i)
					if g == "f1" {
						w = value.NewNull()
					}
					tab.MustAppend(row(g, num(x), w, int(i)))
				}
			}
		}
		return tab
	}
	var mixed []value.Tuple // spans six chunks; revisits every hazard at once
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 45; i++ {
		g := []string{"f1", "f2", "f3", "f4"}[rng.Intn(4)]
		w := []value.V{value.NewNull(), num(int64(rng.Intn(9))), value.NewFloat(rng.Float64())}[rng.Intn(3)]
		mixed = append(mixed, row(g, num(int64(rng.Intn(12))), w, i))
	}
	batches := []struct {
		name string
		rows []value.Tuple
	}{
		{"null sum turns numeric", []value.Tuple{
			row("f1", num(2), num(1), 0), row("f1", num(3), num(1), 1), row("f1", num(5), num(1), 0),
			row("f1", num(6), num(1), 1), row("f1", num(8), num(1), 0),
		}},
		{"int sum turns float", []value.Tuple{row("f2", num(5), value.NewFloat(0.5), 0)}},
		{"fresh groups front, middle, end", []value.Tuple{
			row("f3", num(4), num(4), 0), row("f3", num(1), num(1), 0), row("f3", num(9), num(9), 0),
			row("f3", num(7), num(7), 1), row("f3", num(4), num(4), 1),
		}},
		{"string predictor", []value.Tuple{row("f2", str("n/a"), num(3), 0), row("f2", str("n/a"), num(3), 1)}},
		{"several chunks", mixed},
	}

	opt := lenientOpts()
	opt.Attributes = []string{"g", "x", "h"}
	opt.AggFuncs = []engine.AggFunc{engine.Count, engine.Sum, engine.Avg}
	// linFrags lists the fragments on which [g]: x -> count(*) holds
	// under Lin.
	linFrags := func(m *Maintainer) string {
		var frags []string
		for _, p := range m.Patterns() {
			if p.Pattern.Key() == "g|x|count(*)|Lin" {
				for _, lm := range p.Locals {
					frags = append(frags, lm.Frag[0].String())
				}
			}
		}
		sort.Strings(frags)
		return strings.Join(frags, ",")
	}
	for _, tc := range []struct {
		name        string
		seg         bool
		parallelism int
	}{
		{"dense", false, 1}, {"dense-parallel", false, 4}, {"segtable-parallel", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tab engine.MutableRelation = base()
			var st *engine.SegTable
			if tc.seg {
				st = segTableFrom(t, base(), 2, 10)
				defer st.Close()
				tab = st
			}
			opt := opt
			opt.Parallelism = tc.parallelism
			m, err := NewMaintainer(tab, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAsRemine(t, "initial", m, opt)
			for i, b := range batches {
				before := linFrags(m)
				if err := m.Apply(b.rows); err != nil {
					t.Fatal(err)
				}
				requireSameAsRemine(t, b.name, m, opt)
				if b.name == "string predictor" {
					if before != "f1,f2,f3" {
						t.Fatalf("Lin held on %q before the string arrived, want f1,f2,f3", before)
					}
					if after := linFrags(m); after != "f1,f3" {
						t.Errorf("Lin holds on %q after a string predictor in f2, want f1,f3", after)
					}
				}
				if st != nil && i == 2 {
					if err := st.Compact(); err != nil {
						t.Fatal(err)
					}
					if err := m.CatchUp(); err != nil {
						t.Fatal(err)
					}
					requireSameAsRemine(t, "post-compact", m, opt)
				}
			}
		})
	}
}
