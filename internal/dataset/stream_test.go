package dataset

import (
	"path/filepath"
	"testing"

	"cape/internal/engine"
	"cape/internal/value"
)

// collectStream drains a streaming generator into a slice of rows.
func collectStream(t *testing.T, stream func(int, func([]value.Tuple) error) error, batchSize int) []value.Tuple {
	t.Helper()
	var rows []value.Tuple
	err := stream(batchSize, func(batch []value.Tuple) error {
		if batchSize > 0 && len(batch) > batchSize {
			t.Fatalf("batch of %d rows exceeds batchSize %d", len(batch), batchSize)
		}
		rows = append(rows, batch...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestStreamMatchesGenerate pins the streaming generators to their
// materializing counterparts: every batch size must reproduce the same
// row stream byte for byte.
func TestStreamMatchesGenerate(t *testing.T) {
	crimeCfg := CrimeConfig{Rows: 2500, Seed: 9, NumAttrs: 8}
	dblpCfg := DBLPConfig{Rows: 2500, Seed: 9}
	cases := []struct {
		name   string
		want   *engine.Table
		stream func(int, func([]value.Tuple) error) error
	}{
		{"crime", GenerateCrime(crimeCfg), func(bs int, fn func([]value.Tuple) error) error {
			return StreamCrime(crimeCfg, bs, fn)
		}},
		{"dblp", GenerateDBLP(dblpCfg), func(bs int, fn func([]value.Tuple) error) error {
			return StreamDBLP(dblpCfg, bs, fn)
		}},
	}
	for _, tc := range cases {
		for _, bs := range []int{1, 7, 100, 4096, 100000} {
			rows := collectStream(t, tc.stream, bs)
			if len(rows) != tc.want.NumRows() {
				t.Fatalf("%s batch %d: %d rows, want %d", tc.name, bs, len(rows), tc.want.NumRows())
			}
			for i, r := range rows {
				if !r.Equal(tc.want.Row(i)) {
					t.Fatalf("%s batch %d: row %d = %v, want %v", tc.name, bs, i, r, tc.want.Row(i))
				}
			}
		}
	}
}

// TestStreamIntoSegment streams a generator straight into a
// SegmentWriter — the million-row path used by cape convert — and
// checks the persisted segment holds the exact rows.
func TestStreamIntoSegment(t *testing.T) {
	cfg := CrimeConfig{Rows: 3000, Seed: 4, NumAttrs: 6}
	w := engine.NewSegmentWriter(CrimeSchema(cfg))
	err := StreamCrime(cfg, 512, func(batch []value.Tuple) error {
		return w.AppendRows(batch)
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crime.seg")
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := engine.OpenSegTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	want := GenerateCrime(cfg)
	if st.NumRows() != want.NumRows() {
		t.Fatalf("segment rows = %d, want %d", st.NumRows(), want.NumRows())
	}
	i := 0
	err = st.ScanRows(0, st.NumRows(), func(row value.Tuple) error {
		if !row.Equal(want.Row(i)) {
			t.Fatalf("segment row %d = %v, want %v", i, row, want.Row(i))
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
