package mining

import (
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
	sorted, err := grouped.Sorted(append(append([]string{}, f...), v...))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pattern.FitShared(f, v, aggs, opt.Models, sorted, opt.Thresholds, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCrimeMaintainer is the repository benchmark's append workload at
// the Maintainer's front door: Crime rows (6 attributes, 10
// communities) mined at ψ=3 over count(*), plus the 100-row batches
// that follow in the generator's stream.
func benchCrimeMaintainer(tb testing.TB, rows int) (*Maintainer, [][]value.Tuple) {
	const batchRows, nBatches = 100, 64
	cfg := dataset.CrimeConfig{Rows: rows + batchRows*nBatches, Seed: 1, NumAttrs: 6, NumCommunities: 10}
	all := dataset.GenerateCrime(cfg).Rows()
	tab := engine.NewTable(dataset.CrimeSchema(cfg))
	if err := tab.AppendRows(all[:rows]); err != nil {
		tb.Fatal(err)
	}
	m, err := NewMaintainer(tab, Options{
		MaxPatternSize: 3,
		Thresholds:     pattern.Thresholds{Theta: 0.25, LocalSupport: 4, Lambda: 0.25, GlobalSupport: 3},
		AggFuncs:       []engine.AggFunc{engine.Count},
	})
	if err != nil {
		tb.Fatal(err)
	}
	batches := make([][]value.Tuple, nBatches)
	for i := range batches {
		batches[i] = all[rows+i*batchRows : rows+(i+1)*batchRows]
	}
	return m, batches
}

// dirtiedBy calls fn for every fragment a CatchUp over batch re-fits:
// the fragments the batch's rows fall into, over every split. Call it
// after the CatchUp, so fragments the batch created exist.
func dirtiedBy(m *Maintainer, batch []value.Tuple, fn func(sp *mSplit, fr *mFrag)) {
	var key []byte
	for _, gs := range m.gsets {
		for _, sp := range gs.splits {
			seen := make(map[*mFrag]bool)
			for _, row := range batch {
				key = key[:0]
				for _, p := range sp.fPos {
					key = row[gs.colIdx[p]].AppendKey(key)
				}
				if fr := sp.frags[sp.fragIdx[string(key)]]; !seen[fr] {
					seen[fr] = true
					fn(sp, fr)
				}
			}
		}
	}
}

// BenchmarkMaintainerCatchUp times one acknowledged append's
// maintenance at the repository benchmark's table size: CatchUp over a
// 100-row batch already in a 300K-row table. Batches repeat after the
// first 64, so long runs measure the steady state in which a batch
// creates no group.
func BenchmarkMaintainerCatchUp(b *testing.B) {
	m, batches := benchCrimeMaintainer(b, 300000)
	walked := 0
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
		b.StopTimer()
		dirtiedBy(m, batch, func(_ *mSplit, fr *mFrag) { walked += len(fr.groups) })
		b.StartTimer()
	}
	b.ReportMetric(float64(walked)/float64(b.N), "fraggroups-walked/op")
}

// TestMaintainerCatchUpAllocs fences the steady-state append: a CatchUp
// that creates no group allocates the local models of the fragments it
// re-fits — one Frag tuple per fragment that holds any, a LocalModel
// and its model per holding candidate, the coefficient vector of a Lin
// model — and nothing per group it touches or walks.
func TestMaintainerCatchUpAllocs(t *testing.T) {
	m, batches := benchCrimeMaintainer(t, 30000)
	batch := batches[0]
	if err := m.Apply(batch); err != nil { // creates the batch's groups
		t.Fatal(err)
	}
	// One warm-up and one measured append: the state afterwards is what
	// the measured CatchUp left, so its local models can be counted.
	got := int(testing.AllocsPerRun(1, func() {
		if err := m.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}))
	want, walked := 0, 0
	dirtiedBy(m, batch, func(sp *mSplit, fr *mFrag) {
		walked += len(fr.groups)
		held := 0
		for _, cs := range sp.cands {
			if _, ok := cs.locals[fr.key]; ok {
				held += 2
				if cs.model == regress.Lin {
					held++
				}
			}
		}
		if held > 0 {
			want += held + 1
		}
	})
	// The slack covers the per-call fixed cost: the row chunk, the pool
	// closures, the table's own append.
	if slack := 32; got > want+slack {
		t.Errorf("steady-state append allocates %d times; the local models it re-fit account for %d (+%d fixed) over %d walked fragment memberships",
			got, want, slack, walked)
	}
	if want == 0 || walked < 100*len(batch) {
		t.Fatalf("fixture re-fits %d model allocations over %d memberships; the fence is vacuous", want, walked)
	}
}
