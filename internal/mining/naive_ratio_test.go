package mining

import (
	"testing"

	"cape/internal/engine"
)

// BenchmarkNaiveDense and BenchmarkNaiveSegments time NAIVE over a
// dense table and over sealed segments, which it materializes once.
func BenchmarkNaiveDense(b *testing.B) {
	tab, opt := benchDBLP(8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Naive(tab, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveSegments(b *testing.B) {
	tab, opt := benchDBLP(8000)
	st := segTableFromB(b, tab, 4, 200)
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Naive(st, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// segTableFromB mirrors segTableFrom for benchmarks.
func segTableFromB(b *testing.B, tab *engine.Table, nSegs, tailRows int) *engine.SegTable {
	b.Helper()
	n := tab.NumRows() - tailRows
	st := engine.NewSegTable(tab.Schema())
	per := n / nSegs
	for s := 0; s < nSegs; s++ {
		lo, hi := s*per, (s+1)*per
		if s == nSegs-1 {
			hi = n
		}
		w := engine.NewSegmentWriter(tab.Schema())
		for i := lo; i < hi; i++ {
			if err := w.Append(tab.Row(i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.AddSegment(w.Segment()); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.AppendRows(tab.Rows()[n:]); err != nil {
		b.Fatal(err)
	}
	return st
}
