package engine_test

import (
	"math/rand"
	"strings"
	"testing"

	"cape/internal/dataset"
	"cape/internal/engine"
	"cape/internal/value"
)

// groupByBenchTable is a 300K-row Crime table (10 communities, all 11
// attributes) plus a float column m holding a distinct value per row.
func groupByBenchTable() *engine.Table {
	crime := dataset.GenerateCrime(dataset.CrimeConfig{Rows: 300000, Seed: 1, NumAttrs: 11, NumCommunities: 10})
	sch := append(crime.Schema().Clone(), engine.Column{Name: "m", Kind: value.Float})
	tab := engine.NewTable(sch)
	rng := rand.New(rand.NewSource(7))
	rows := make([]value.Tuple, crime.NumRows())
	for i, r := range crime.Rows() {
		rows[i] = append(r.Clone(), value.NewFloat(float64(i)+rng.Float64()))
	}
	if err := tab.AppendRows(rows); err != nil {
		panic(err)
	}
	return tab
}

// groupByBenchSegTable holds tab's rows as sealed segments of
// 128 Ki rows each, the store's segment size, plus the rest as the
// append tail.
func groupByBenchSegTable(tab *engine.Table) *engine.SegTable {
	const segRows = 128 << 10
	st := engine.NewSegTable(tab.Schema())
	lo := 0
	for ; lo+segRows <= tab.NumRows(); lo += segRows {
		w := engine.NewSegmentWriter(tab.Schema())
		if err := w.AppendRange(tab, lo, lo+segRows); err != nil {
			panic(err)
		}
		if err := st.AddSegment(w.Segment()); err != nil {
			panic(err)
		}
	}
	var tail []value.Tuple
	if err := tab.ScanRows(lo, tab.NumRows(), func(row value.Tuple) error {
		tail = append(tail, row.Clone())
		return nil
	}); err != nil {
		panic(err)
	}
	if err := st.AppendRows(tail); err != nil {
		panic(err)
	}
	return st
}

// BenchmarkGroupByPaths times GroupBy on the question and mining shapes
// — count(*) over key sets from one low-cardinality attribute up to
// type,community,year,month — and a count(*),sum(m) over the
// distinct-per-row float column, on the same 300K rows as a dense Table
// and as a SegTable of sealed segments plus a tail. Column encodings
// are built before timing, so each iteration is one query on a warm
// relation.
func BenchmarkGroupByPaths(b *testing.B) {
	tab := groupByBenchTable()
	rels := []struct {
		name string
		rel  engine.Relation
	}{
		{"table", tab},
		{"segtable", groupByBenchSegTable(tab)},
	}
	count := []engine.AggSpec{{Func: engine.Count}}
	cases := []struct {
		keys string
		aggs []engine.AggSpec
	}{
		{"type", count},
		{"month", count},
		{"type,community", count},
		{"type,year", count},
		{"community,year,month", count},
		{"type,community,year", count},
		{"type,community,month", count},
		{"type,community,year,month", count},
		{"type,community,year,month", []engine.AggSpec{{Func: engine.Count}, {Func: engine.Sum, Arg: "m"}}},
	}
	for _, r := range rels {
		for _, c := range cases {
			keys := strings.Split(c.keys, ",")
			name := r.name + "/" + c.keys
			if len(c.aggs) > 1 {
				name += "+sum(m)"
			}
			b.Run(name, func(b *testing.B) {
				if _, err := r.rel.GroupBy(keys, c.aggs); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for b.Loop() {
					if _, err := r.rel.GroupBy(keys, c.aggs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
