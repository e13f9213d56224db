package mining

import (
	"bytes"
	"math/rand"
	"testing"

	"cape/internal/engine"
	"cape/internal/regress"
	"cape/internal/value"
)

// segTableFrom rebuilds a table as a SegTable: the first rows split into
// nSegs sealed compressed segments, the last tailRows appended to the
// uncompressed tail — the layout a long-lived segment-backed dataset has
// after a few compactions plus fresh appends.
func segTableFrom(t *testing.T, tab *engine.Table, nSegs, tailRows int) *engine.SegTable {
	t.Helper()
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
				t.Fatal(err)
			}
		}
		if err := st.AddSegment(w.Segment()); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AppendRows(tab.Rows()[n:]); err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != tab.NumRows() {
		t.Fatalf("segtable has %d rows, want %d", st.NumRows(), tab.NumRows())
	}
	return st
}

// TestMaintainerOverSegTable pins the segment-backed maintenance path:
// a Maintainer over a SegTable (compressed segments + uncompressed
// tail) must stay byte-identical both to a cold re-mine of the SegTable
// and to a dense-table Maintainer fed the same appends, across append
// batches and a mid-stream Compact that seals the tail.
func TestMaintainerOverSegTable(t *testing.T) {
	tab := testTable(t, 300)
	st := segTableFrom(t, tab, 2, 40)
	opt := lenientOpts()

	m, err := NewMaintainer(st, opt)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewMaintainer(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAsRemine(t, "initial", m, opt)
	if len(m.Patterns()) == 0 {
		t.Fatal("fixture mined no patterns; the identity checks are vacuous")
	}

	requireSameAsDense := func(label string) {
		t.Helper()
		got := patternsJSON(t, m.Patterns())
		want := patternsJSON(t, dense.Patterns())
		if !bytes.Equal(got, want) {
			t.Errorf("%s: segment-backed maintainer diverges from dense maintainer\nsegment: %s\ndense: %s",
				label, got, want)
		}
	}
	requireSameAsDense("initial")

	rng := rand.New(rand.NewSource(11))
	authors := []string{"a1", "a2", "a3", "a4", "a5", "a6"}
	venues := []string{"KDD", "ICDE", "VLDB", "WWW"}
	nextBatch := func() []value.Tuple {
		rows := make([]value.Tuple, 1+rng.Intn(20))
		for i := range rows {
			rows[i] = value.Tuple{
				value.NewString(authors[rng.Intn(len(authors))]),
				value.NewString(venues[rng.Intn(len(venues))]),
				value.NewInt(int64(2000 + rng.Intn(8))),
				value.NewInt(int64(rng.Intn(30))),
			}
		}
		return rows
	}
	apply := func(label string, rows []value.Tuple) {
		t.Helper()
		if err := m.Apply(rows); err != nil {
			t.Fatal(err)
		}
		if err := dense.Apply(rows); err != nil {
			t.Fatal(err)
		}
		requireSameAsRemine(t, label, m, opt)
		requireSameAsDense(label)
	}
	for batch := 0; batch < 3; batch++ {
		apply("batch "+string(rune('0'+batch)), nextBatch())
	}

	// Compact seals the tail into a new compressed segment. Row count
	// and contents are unchanged, so CatchUp must fold nothing and the
	// maintained set must not move; only the epoch advances.
	before := patternsJSON(t, m.Patterns())
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.TailRows() != 0 {
		t.Fatalf("tail holds %d rows after Compact", st.TailRows())
	}
	if err := m.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if got := patternsJSON(t, m.Patterns()); !bytes.Equal(got, before) {
		t.Errorf("Compact moved the maintained set\nafter: %s\nbefore: %s", got, before)
	}
	if _, epoch := m.Synced(); epoch != st.Epoch() {
		t.Errorf("maintainer epoch %d, segtable epoch %d after Compact", epoch, st.Epoch())
	}

	// Appends after the compact land in a fresh tail; the maintained set
	// must keep tracking both the re-mine and the dense maintainer.
	for batch := 3; batch < 5; batch++ {
		apply("post-compact batch "+string(rune('0'+batch)), nextBatch())
	}
}

// TestMaintainerParallelDeterminism: a Maintainer with Parallelism > 1
// must stay byte-identical to a sequential Maintainer over the same
// SegTable — through the initial catch-up, append batches, and a
// mid-stream Compact — because grouping sets fold independently and the
// chunked scan preserves row order within each set.
func TestMaintainerParallelDeterminism(t *testing.T) {
	// Shrink the catch-up chunk so the 300-row catch-up and the larger
	// batches cross several flush boundaries.
	origChunk := maintainChunkRows
	maintainChunkRows = 64
	defer func() { maintainChunkRows = origChunk }()

	tab := testTable(t, 300)
	opt := lenientOpts()
	opt.Parallelism = 1
	popt := opt
	popt.Parallelism = 4

	seqSt := segTableFrom(t, tab, 2, 40)
	parSt := segTableFrom(t, tab, 2, 40)
	defer seqSt.Close()
	defer parSt.Close()

	seq, err := NewMaintainer(seqSt, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewMaintainer(parSt, popt)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		got := patternsJSON(t, par.Patterns())
		want := patternsJSON(t, seq.Patterns())
		if !bytes.Equal(got, want) {
			t.Errorf("%s: parallel maintainer diverges\nparallel: %s\nsequential: %s", label, got, want)
		}
	}
	check("initial")
	if len(seq.Patterns()) == 0 {
		t.Fatal("fixture mined no patterns; the identity checks are vacuous")
	}

	rng := rand.New(rand.NewSource(23))
	authors := []string{"a1", "a2", "a3", "a4", "a5", "a6"}
	venues := []string{"KDD", "ICDE", "VLDB", "WWW"}
	nextBatch := func() []value.Tuple {
		// With the shrunken chunk size, batches up to 600 rows cross
		// several flush boundaries while staying fast.
		rows := make([]value.Tuple, 1+rng.Intn(600))
		for i := range rows {
			rows[i] = value.Tuple{
				value.NewString(authors[rng.Intn(len(authors))]),
				value.NewString(venues[rng.Intn(len(venues))]),
				value.NewInt(int64(2000 + rng.Intn(8))),
				value.NewInt(int64(rng.Intn(30))),
			}
		}
		return rows
	}
	for batch := 0; batch < 3; batch++ {
		rows := nextBatch()
		if err := seq.Apply(rows); err != nil {
			t.Fatal(err)
		}
		if err := par.Apply(rows); err != nil {
			t.Fatal(err)
		}
		check("batch " + string(rune('0'+batch)))
		if batch == 1 {
			// Mid-stream Compact on the parallel side only: sealing the
			// tail must not move the maintained set, so the two sides still
			// agree even though their storage layouts now differ.
			if err := parSt.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := par.CatchUp(); err != nil {
				t.Fatal(err)
			}
			check("post-compact")
		}
	}
}

// TestMaintainerRebuildsAfterRewrite: a Compact that rewrites rows
// already folded — the tail holds Float(3) and Int(3) in the untyped x,
// which the sealed segment stores as one dictionary representative —
// makes CatchUp rebuild, so the maintained set equals a cold ARPMine
// after the next append, and Grouping serves again.
func TestMaintainerRebuildsAfterRewrite(t *testing.T) {
	s := newCountStream(5)
	tab := engine.NewTable(countSchema)
	if err := tab.AppendRows(s.initial(200)); err != nil {
		t.Fatal(err)
	}
	tail := []value.Tuple{
		{value.NewString("g1"), value.NewFloat(3), value.NewString("p"), value.NewInt(2001)},
		{value.NewString("g1"), value.NewInt(3), value.NewString("q"), value.NewInt(2001)},
		{value.NewString("g2"), value.NewInt(3), value.NewString("p"), value.NewInt(2002)},
		{value.NewString("g2"), value.NewFloat(3), value.NewString("r"), value.NewInt(2002)},
	}
	if err := tab.AppendRows(tail); err != nil {
		t.Fatal(err)
	}
	st := segTableFrom(t, tab, 2, 30)
	defer st.Close()
	opt := countOpts([]regress.ModelType{regress.Const, regress.Lin}, 1)
	m, err := NewMaintainer(st, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAsRemine(t, "initial", m, opt)
	before := st.RewriteEpoch()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.RewriteEpoch() == before {
		t.Fatal("Compact rewrote no row; the fixture is vacuous")
	}
	if err := m.Apply([]value.Tuple{{value.NewString("g1"), value.NewInt(3), value.NewString("r"), value.NewInt(2003)}}); err != nil {
		t.Fatal(err)
	}
	requireCountsSameAsCold(t, "after rewrite", m, opt)
	got, ok := m.Grouping([]string{"g", "x"}, engine.AggSpec{Func: engine.Count})
	if !ok {
		t.Fatal("Grouping declines after the rebuild")
	}
	requireGroupBy(t, "after the rebuild", st, got, 2)
}
