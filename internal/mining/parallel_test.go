package mining

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cape/internal/engine"
)

func TestPoolForEachRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		var count int64
		err := engine.NewPool(workers).ForEach("test", 20, func(i int) error {
			atomic.AddInt64(&count, 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 20 {
			t.Errorf("workers=%d ran %d of 20", workers, count)
		}
	}
}

func TestPoolForEachPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := engine.NewPool(4).ForEach("test", 50, func(i int) error {
		if i == 17 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Errorf("error = %v, want sentinel", err)
	}
}

// TestPoolForEachFailsFast: after an error is recorded, no worker may
// claim further items — a large run should execute only a handful of
// items past the failure, not all of them.
func TestPoolForEachFailsFast(t *testing.T) {
	sentinel := errors.New("boom")
	const n = 10000
	var ran int64
	err := engine.NewPool(4).ForEach("test", n, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			return sentinel
		}
		time.Sleep(time.Millisecond) // let other workers observe the error
		return nil
	})
	if err != sentinel {
		t.Fatalf("error = %v, want sentinel", err)
	}
	if got := atomic.LoadInt64(&ran); got > n/10 {
		t.Errorf("ran %d of %d items after the first error; fail-fast not effective", got, n)
	}
}

func TestPoolForEachZeroItems(t *testing.T) {
	if err := engine.NewPool(4).ForEach("test", 0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("zero items should not run fn: %v", err)
	}
}

// TestPoolNestedForEach: a ForEach issued from inside a pool worker must
// complete (caller-runs keeps the composition deadlock-free) and run
// every inner item.
func TestPoolNestedForEach(t *testing.T) {
	pool := engine.NewPool(4)
	var count int64
	err := pool.ForEach("outer", 8, func(i int) error {
		return pool.ForEach("inner", 8, func(j int) error {
			atomic.AddInt64(&count, 1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 64 {
		t.Errorf("nested ForEach ran %d of 64", count)
	}
}

// mmapSegTableFrom is segTableFrom with the sealed segments written to
// files under t.TempDir() and mapped back by engine.OpenSegTable, the
// shape a durable store serves from.
func mmapSegTableFrom(t *testing.T, tab *engine.Table, nSegs, tailRows int) *engine.SegTable {
	t.Helper()
	dir := t.TempDir()
	n := tab.NumRows() - tailRows
	per := n / nSegs
	paths := make([]string, nSegs)
	for s := range paths {
		hi := (s + 1) * per
		if s == nSegs-1 {
			hi = n
		}
		w := engine.NewSegmentWriter(tab.Schema())
		if err := w.AppendRows(tab.Rows()[s*per : hi]); err != nil {
			t.Fatal(err)
		}
		paths[s] = filepath.Join(dir, fmt.Sprintf("%04d.seg", s))
		if err := w.WriteFile(paths[s]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := engine.OpenSegTable(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendRows(tab.Rows()[n:]); err != nil {
		t.Fatal(err)
	}
	if st.NumSegments() != nSegs || st.NumRows() != tab.NumRows() {
		t.Fatalf("mmap segtable has %d segments / %d rows, want %d / %d",
			st.NumSegments(), st.NumRows(), nSegs, tab.NumRows())
	}
	return st
}

// TestParallelMiningEquivalence: every miner, at the default width
// (GOMAXPROCS) and at Parallelism 1 and 4, over a plain Table, an
// in-memory SegTable and a SegTable of mmap'd segment files (where
// CubeMine's cube masks add a second level of fan-out and Naive selects
// over one materialized copy), must serialize exactly the bytes and
// count exactly the candidates of that miner's sequential run over the
// dense Table.
func TestParallelMiningEquivalence(t *testing.T) {
	tab := testTable(t, 400)
	seg := segTableFrom(t, tab, 3, 40)
	defer seg.Close()
	mm := mmapSegTableFrom(t, tab, 3, 40)
	defer mm.Close()

	miners := []struct {
		name string
		run  func(engine.Relation, Options) (*Result, error)
	}{
		{"Naive", Naive},
		{"CubeMine", CubeMine},
		{"ShareGrp", ShareGrp},
		{"ARPMine", ARPMine},
	}
	rels := []struct {
		name string
		r    engine.Relation
	}{
		{"Table", tab},
		{"SegTable", seg},
		{"mmap SegTable", mm},
	}
	seqOpts := lenientOpts()
	seqOpts.Parallelism = 1
	for _, m := range miners {
		want, err := m.run(tab, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Patterns) == 0 {
			t.Fatalf("%s: reference mined no patterns; the comparison would be vacuous", m.name)
		}
		wantJSON := patternsJSON(t, want.Patterns)
		for _, rel := range rels {
			for _, workers := range []int{0, 1, 4} {
				opt := lenientOpts()
				opt.Parallelism = workers
				got, err := m.run(rel.r, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.Candidates != want.Candidates {
					t.Errorf("%s/%s/%d workers: %d candidates, sequential dense run has %d",
						m.name, rel.name, workers, got.Candidates, want.Candidates)
				}
				if !bytes.Equal(patternsJSON(t, got.Patterns), wantJSON) {
					t.Errorf("%s/%s/%d workers: pattern set is not byte-identical to the sequential dense run",
						m.name, rel.name, workers)
				}
			}
		}
	}

	// FD pruning composes with parallelism: counters must agree too.
	for _, useFDs := range []bool{false, true} {
		opt := seqOpts
		opt.UseFDs = useFDs
		seqA, err := ARPMine(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Parallelism = 4
		parA, err := ARPMine(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(seqA.Patterns) != len(parA.Patterns) ||
			seqA.Candidates != parA.Candidates ||
			seqA.SkippedByFD != parA.SkippedByFD {
			t.Fatalf("FDs=%v: parallel ARPMine differs: %d/%d/%d vs %d/%d/%d",
				useFDs,
				len(seqA.Patterns), seqA.Candidates, seqA.SkippedByFD,
				len(parA.Patterns), parA.Candidates, parA.SkippedByFD)
		}
	}
}

// TestConcurrentMinesKeepTheirPools: mines over one SegTable may
// overlap, as a server's mines of one table do. Two at the default
// width and one at width 1, run at once over the shared relation, each
// on its own pool, must each equal the sequential run (run it under
// -race).
func TestConcurrentMinesKeepTheirPools(t *testing.T) {
	tab := testTable(t, 400)
	seqOpts := lenientOpts()
	seqOpts.Parallelism = 1
	want, err := ARPMine(tab, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := patternsJSON(t, want.Patterns)
	st := segTableFrom(t, tab, 3, 40)
	defer st.Close()
	widths := []int{0, 0, 1}
	for round := 0; round < 3; round++ {
		got := make([]*Result, len(widths))
		errs := make([]error, len(widths))
		var wg sync.WaitGroup
		for i, w := range widths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opt := lenientOpts()
				opt.Parallelism = w
				got[i], errs[i] = ARPMine(st, opt)
			}()
		}
		wg.Wait()
		for i, res := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if res.Candidates != want.Candidates || !bytes.Equal(patternsJSON(t, res.Patterns), wantJSON) {
				t.Errorf("round %d, mine %d at width %d: differs from the sequential run", round, i, widths[i])
			}
		}
	}
}
