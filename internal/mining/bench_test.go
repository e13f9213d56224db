package mining

import (
	"slices"
	"testing"

	"cape/internal/dataset"
	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/regress"
	"cape/internal/value"
)

// benchDBLP is the DBLP-style mining workload: a synthetic publication
// table mined over (author, year, venue) at ψ=3.
func benchDBLP(rows int) (*engine.Table, Options) {
	tab := dataset.GenerateDBLP(dataset.DBLPConfig{Rows: rows, Seed: 1})
	opt := Options{
		MaxPatternSize: 3,
		Attributes:     []string{"author", "year", "venue"},
		Thresholds:     pattern.Thresholds{Theta: 0.5, LocalSupport: 5, Lambda: 0.5, GlobalSupport: 5},
		AggFuncs:       []engine.AggFunc{engine.Count, engine.Sum},
		Models:         []regress.ModelType{regress.Const, regress.Lin},
	}
	return tab, opt
}

// BenchmarkARPMine is the offline-mining hot path end to end: group-by
// evaluation, sort-order exploration, and shared fitting on a DBLP-style
// table (DBLP 5000 rows, ψ=3).
func BenchmarkARPMine(b *testing.B) {
	tab, opt := benchDBLP(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ARPMine(tab, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Patterns) == 0 {
			b.Fatal("benchmark workload mined no patterns")
		}
	}
}

// BenchmarkFitShared isolates the shared fragment-scan fitter: one
// grouped-and-sorted input, every (agg, model) candidate of one (F, V)
// split evaluated per iteration.
func BenchmarkFitShared(b *testing.B) {
	tab, opt := benchDBLP(5000)
	g := []string{"author", "year", "venue"}
	aggs := aggSpecsFor(tab, opt.AggFuncs, g)
	grouped, err := tab.GroupBy(g, aggs)
	if err != nil {
		b.Fatal(err)
	}
	f, v := []string{"author", "venue"}, []string{"year"}
	codes, err := engine.BuildSortCodes(grouped, g)
	if err != nil {
		b.Fatal(err)
	}
	perm := codes.NewPerm()
	if err := codes.SortPerm(perm, append(append([]string{}, f...), v...), 0); err != nil {
		b.Fatal(err)
	}
	fitter, err := pattern.NewSharedFitter(grouped, aggs, opt.Models, opt.Thresholds)
	if err != nil {
		b.Fatal(err)
	}
	var tm pattern.Timers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fitter.Fit(f, v, perm, &tm); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCrime is the repository benchmark's append workload at the
// miner's front door: Crime rows (6 attributes, 10 communities) mined
// at ψ=3 over count(*), plus the 100-row batches that follow in the
// generator's stream.
func benchCrime(tb testing.TB, rows int) (*engine.Table, Options, [][]value.Tuple) {
	const batchRows, nBatches = 100, 64
	cfg := dataset.CrimeConfig{Rows: rows + batchRows*nBatches, Seed: 1, NumAttrs: 6, NumCommunities: 10}
	all := dataset.GenerateCrime(cfg).Rows()
	tab := engine.NewTable(dataset.CrimeSchema(cfg))
	if err := tab.AppendRows(all[:rows]); err != nil {
		tb.Fatal(err)
	}
	opt := Options{
		MaxPatternSize: 3,
		Thresholds:     pattern.Thresholds{Theta: 0.25, LocalSupport: 4, Lambda: 0.25, GlobalSupport: 3},
		AggFuncs:       []engine.AggFunc{engine.Count},
	}
	batches := make([][]value.Tuple, nBatches)
	for i := range batches {
		batches[i] = all[rows+i*batchRows : rows+(i+1)*batchRows]
	}
	return tab, opt, batches
}

// benchWidths are the mining widths the Crime benchmarks time side by
// side: sequential, and the default, the machine's width.
var benchWidths = []struct {
	name string
	par  int
}{{"w=1", 1}, {"w=default", 0}}

// benchCrimeMaintainer builds a Maintainer of width par over benchCrime's
// table.
func benchCrimeMaintainer(tb testing.TB, rows, par int) (*Maintainer, [][]value.Tuple) {
	tab, opt, batches := benchCrime(tb, rows)
	opt.Parallelism = par
	m, err := NewMaintainer(tab, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return m, batches
}

// BenchmarkMaintainerBuild times NewMaintainer over benchCrime's
// 300K-row table: ARPMine's group-by, split enumeration and fits, plus
// keeping their outputs. BenchmarkARPMineCrime is the same mine without
// the retention, for the ratio; both run at each of benchWidths.
func BenchmarkMaintainerBuild(b *testing.B) {
	tab, opt, _ := benchCrime(b, 300000)
	for _, w := range benchWidths {
		opt.Parallelism = w.par
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewMaintainer(tab, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkARPMineCrime is a cold ARPMine over the table and options
// BenchmarkMaintainerBuild builds from.
func BenchmarkARPMineCrime(b *testing.B) {
	tab, opt, _ := benchCrime(b, 300000)
	for _, w := range benchWidths {
		opt.Parallelism = w.par
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ARPMine(tab, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkARPMineSeg is the repository benchmark's mine_scale job in
// process: a cold ARPMine of 400K Crime rows (10 communities) held as a
// SegTable of 128 Ki-row sealed segments, count(*) at ψ=3, at each of
// benchWidths.
func BenchmarkARPMineSeg(b *testing.B) {
	const rows, segRows = 400000, 131072
	cfg := dataset.CrimeConfig{Rows: rows, Seed: 1, NumAttrs: 6, NumCommunities: 10}
	all := dataset.GenerateCrime(cfg).Rows()
	st := engine.NewSegTable(dataset.CrimeSchema(cfg))
	for lo := 0; lo < rows; lo += segRows {
		if err := st.AppendRows(all[lo:min(lo+segRows, rows)]); err != nil {
			b.Fatal(err)
		}
		if err := st.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	_, opt, _ := benchCrime(b, 0)
	for _, w := range benchWidths {
		opt.Parallelism = w.par
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ARPMine(st, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// dirtiedBy calls fn for every fragment a CatchUp over batch re-fits:
// the fragments the batch's rows fall into, over every split. Call it
// after the CatchUp, so fragments the batch created exist.
func dirtiedBy(m *Maintainer, batch []value.Tuple, fn func(gs *gSet, sp *mSplit, fi int32)) {
	var key []byte
	for _, gs := range m.gsets {
		for _, sp := range gs.splits {
			seen := make(map[int32]bool)
			for _, row := range batch {
				key = key[:0]
				for _, p := range sp.fPos {
					key = row[m.tab.Schema().Index(gs.attrs[p])].AppendKey(key)
				}
				if fi := gs.fragIndex(sp)[string(key)]; !seen[fi] {
					seen[fi] = true
					fn(gs, sp, fi)
				}
			}
		}
	}
}

// BenchmarkMaintainerCatchUp times one acknowledged append's
// maintenance at the repository benchmark's table size: CatchUp over a
// 100-row batch already in a 300K-row table, at each of benchWidths.
// Batches repeat after the first 64, so long runs measure the steady
// state in which a batch creates no group. It reports the fragment
// memberships the re-fits visited, the Lin-free fragments re-fit from
// kept count statistics and the fragments whose kept Lin moments ruled
// Lin out, per append.
func BenchmarkMaintainerCatchUp(b *testing.B) {
	for _, w := range benchWidths {
		b.Run(w.name, func(b *testing.B) {
			m, batches := benchCrimeMaintainer(b, 300000, w.par)
			start := m.work()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := batches[i%len(batches)]
				if err := m.Table().AppendRows(batch); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := m.CatchUp(); err != nil {
					b.Fatal(err)
				}
			}
			end := m.work()
			b.ReportMetric(float64(end.walked-start.walked)/float64(b.N), "fraggroups-walked/op")
			b.ReportMetric(float64(end.fromStats-start.fromStats)/float64(b.N), "frags-from-stats/op")
			b.ReportMetric(float64(end.fromMoments-start.fromMoments)/float64(b.N), "frags-from-moments/op")
		})
	}
}

// TestMaintainerCatchUpAllocs fences the steady-state append: a CatchUp
// that creates no group allocates the local models of the fragments it
// re-fits — a LocalModel and its model per holding candidate, the
// coefficient vector of a Lin model; the Frag tuple carries over from
// the fragment's previous local models — and nothing per group it
// touches or walks. It runs at width 1, where no pool goroutine adds
// its own allocations.
func TestMaintainerCatchUpAllocs(t *testing.T) {
	m, batches := benchCrimeMaintainer(t, 30000, 1)
	batch := batches[0]
	if err := m.Apply(batch); err != nil { // creates the batch's groups
		t.Fatal(err)
	}
	// One warm-up and one measured append: the state afterwards is what
	// the measured CatchUp left, so its local models can be counted. The
	// warm-up, unmeasured, notes which fragments held a local model: one
	// that held none has no Frag tuple to carry over.
	held := make(map[*mSplit]map[int32]bool)
	warm := true
	got := int(testing.AllocsPerRun(1, func() {
		if err := m.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if warm {
			dirtiedBy(m, batch, func(_ *gSet, sp *mSplit, fi int32) {
				if held[sp] == nil {
					held[sp] = make(map[int32]bool)
				}
				held[sp][fi] = sp.heldFrag(fi) != nil
			})
			warm = false
		}
	}))
	want, dirtied := 0, 0
	dirtiedBy(m, batch, func(_ *gSet, sp *mSplit, fi int32) {
		dirtied += len(sp.frags[fi].groups)
		if sp.heldFrag(fi) != nil && !held[sp][fi] {
			want++
		}
		for _, cs := range sp.cands {
			if int(fi) < len(cs.locals) && cs.locals[fi] != nil {
				want += 2
				if cs.p.Model == regress.Lin {
					want++
				}
			}
		}
	})
	// The slack covers the per-call fixed cost: the row chunk, the pool
	// closures, the table's own append.
	if slack := 32; got > want+slack {
		t.Errorf("steady-state append allocates %d times; the local models it re-fit account for %d (+%d fixed) over %d dirtied fragment memberships",
			got, want, slack, dirtied)
	}
	if want == 0 || dirtied < 100*len(batch) {
		t.Fatalf("fixture re-fits %d model allocations over %d memberships; the fence is vacuous", want, dirtied)
	}
}

// TestWidthAllocs fences what parallelism costs in allocations: a
// NewMaintainer build and a cold ARPMine of benchCrime's 300K-row table
// allocate at width 2 within 5% of what they allocate at width 1. Width
// fans independent group-bys across the pool and adds only the pool's
// own fixed cost; a group-by that splits its rows into per-worker
// partial group tables to merge breaks the fence (2.4×). The race
// detector's instrumentation allocates on its own, so the fence runs
// without it.
func TestWidthAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation fence; race instrumentation allocates on its own")
	}
	tab, opt, _ := benchCrime(t, 300000)
	runs := []struct {
		name string
		run  func(Options) error
	}{
		{"NewMaintainer", func(o Options) error { _, err := NewMaintainer(tab, o); return err }},
		{"ARPMine", func(o Options) error { _, err := ARPMine(tab, o); return err }},
	}
	for _, r := range runs {
		allocs := func(width int) float64 {
			o := opt
			o.Parallelism = width
			return testing.AllocsPerRun(1, func() {
				if err := r.run(o); err != nil {
					t.Fatal(err)
				}
			})
		}
		w1, w2 := allocs(1), allocs(2)
		if w2 > 1.05*w1 {
			t.Errorf("%s allocates %.0f times at width 2, %.2f× its %.0f at width 1 (bound 1.05×)", r.name, w2, w2/w1, w1)
		}
	}
}

// TestMaintainerCatchUpWork counts a steady-state append's re-fit work
// exactly: every dirtied fragment that keeps count statistics and no
// Lin moments re-fits from them; one that keeps Lin moments re-fits
// from them when they rule Lin out (pattern.FragFit.LinImpossible over
// its groups' moments) and walks otherwise; of those that re-fit from
// statistics, only those whose minimum rose — a grown group held it,
// and the kept tie count shows no other holder — pay a pass over their
// groups; every other dirtied fragment walks. Afterwards every kept
// statistic and moment equals its groups' (requireKeptExact).
func TestMaintainerCatchUpWork(t *testing.T) {
	m, batches := benchCrimeMaintainer(t, 30000, 1)
	batch := batches[0]
	if err := m.Apply(batch); err != nil { // creates the batch's groups
		t.Fatal(err)
	}
	yBefore := make(map[*gSet][]float64)
	stBefore := make(map[*mSplit][]countStats)
	for _, gs := range m.gsets {
		yBefore[gs] = slices.Clone(gs.y[0].F)
		for _, sp := range gs.splits {
			stBefore[sp] = slices.Clone(sp.st)
		}
	}
	before := m.work()
	if err := m.Apply(batch); err != nil {
		t.Fatal(err)
	}
	var want refitWork
	dirtied, current, screenedIn := 0, 0, 0
	ff := pattern.NewFragFit(1, m.opt.Models, m.opt.Thresholds)
	dirtiedBy(m, batch, func(gs *gSet, sp *mSplit, fi int32) {
		fr := sp.frags[fi]
		dirtied += len(fr.groups)
		st := stBefore[sp]
		if int(fi) >= len(st) || st[fi].n == 0 {
			want.walked += len(fr.groups)
			return
		}
		if fr.moments {
			if mo := groupMoments(gs, sp, fr); !ff.LinImpossible(&mo) {
				want.walked += len(fr.groups)
				screenedIn++
				return
			}
			want.fromMoments++
		} else {
			want.fromStats++
		}
		grown := int32(0) // groups that held the minimum and grew
		for _, gi := range fr.groups {
			if old := yBefore[gs][gi]; gs.y[0].F[gi] != old && old == st[fi].minimum {
				grown++
			}
		}
		if grown > 0 && grown >= st[fi].atMin {
			want.walked += len(fr.groups)
			want.extremes++
		} else {
			current++
		}
	})
	after := m.work()
	got := refitWork{
		walked:      after.walked - before.walked,
		fromStats:   after.fromStats - before.fromStats,
		fromMoments: after.fromMoments - before.fromMoments,
		extremes:    after.extremes - before.extremes,
	}
	if got != want {
		t.Errorf("append re-fit work %+v, want %+v", got, want)
	}
	// The fixture's counts, pinned: 415 of the Lin-capable fragments it
	// dirties walk, the rest re-fit from moments.
	if pinned := (refitWork{walked: 32452, fromStats: 1901, fromMoments: 3397, extremes: 1882}); want != pinned || screenedIn != 415 {
		t.Errorf("fixture's append work %+v with %d fragments the screen let through, pinned %+v and 415", want, screenedIn, pinned)
	}
	if current == 0 || want.extremes == 0 || want.fromMoments == 0 || screenedIn == 0 || want.walked >= dirtied {
		t.Fatalf("fixture dirties %d memberships, walks %d (%d fragments the screen let through), re-fits %d kept fragments with current extremes, %d with stale ones and %d from moments; the count is vacuous",
			dirtied, want.walked, screenedIn, current, want.extremes, want.fromMoments)
	}
	requireKeptExact(t, m)
}
