package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"cape/internal/engine"
	"cape/internal/value"
)

// testSchema is the fixture table: two categorical columns and one
// numeric, enough for pattern mining to find fragments and fits.
func testSchema() engine.Schema {
	return engine.Schema{
		{Name: "region", Kind: value.String},
		{Name: "product", Kind: value.String},
		{Name: "sales", Kind: value.Int},
	}
}

// testBatches builds n deterministic append batches of 4 rows each.
// Within a (region, product) group, sales grow linearly in the batch
// index, so Const fits hold per count aggregates and Lin fits appear on
// sums — the mining differential has real patterns to disagree on.
func testBatches(n int) [][]value.Tuple {
	regions := []string{"east", "west"}
	out := make([][]value.Tuple, n)
	for b := 0; b < n; b++ {
		batch := make([]value.Tuple, 0, 4)
		for i := 0; i < 4; i++ {
			batch = append(batch, value.Tuple{
				value.NewString(regions[b%len(regions)]),
				value.NewString(fmt.Sprintf("p%d", i%2)),
				value.NewInt(int64(10*b + i)),
			})
		}
		out[b] = batch
	}
	return out
}

func flatten(batches [][]value.Tuple) []value.Tuple {
	var out []value.Tuple
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// tableRows materializes every row of a relation (copied).
func tableRows(t *testing.T, tab engine.MutableRelation) []value.Tuple {
	t.Helper()
	var out []value.Tuple
	err := tab.ScanRows(0, tab.NumRows(), func(row value.Tuple) error {
		cp := make(value.Tuple, len(row))
		copy(cp, row)
		out = append(out, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireRowsEqual checks field-identical row sequences.
func requireRowsEqual(t *testing.T, label string, got, want []value.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for r := range got {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("%s: row %d has %d fields, want %d", label, r, len(got[r]), len(want[r]))
		}
		for c := range got[r] {
			if !value.Equal(got[r][c], want[r][c]) {
				t.Fatalf("%s: row %d col %d = %s, want %s", label, r, c, got[r][c], want[r][c])
			}
		}
	}
}

func mustCreate(t *testing.T, fs FS, opt Options) *Store {
	t.Helper()
	opt.FS = fs
	st, err := Create("data", "sales", testSchema(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreRoundtrip: append + flush + close, then reopen and get the
// same rows, epoch, and a replay-free boot (the close sealed the tail).
func TestStoreRoundtrip(t *testing.T) {
	fs := NewMemFS()
	st := mustCreate(t, fs, Options{})
	batches := testBatches(5)
	for i, b := range batches {
		seq, err := st.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("batch %d got seq %d", i, seq)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, "reopen", tableRows(t, re.Table()), flatten(batches))
	info := re.Info()
	if info.Replayed != 0 {
		t.Errorf("clean close still replayed %d batches", info.Replayed)
	}
	if info.Epoch != uint64(len(batches)) {
		t.Errorf("epoch %d, want %d", info.Epoch, len(batches))
	}
	if info.Table != "sales" {
		t.Errorf("table %q", info.Table)
	}
	if info.SealedRows != info.Rows {
		t.Errorf("sealed %d of %d rows after close", info.SealedRows, info.Rows)
	}
}

// TestStoreReplayWithoutFlush: no flush ever runs; reopen must rebuild
// everything from the WAL alone with the exact epoch trajectory.
func TestStoreReplayWithoutFlush(t *testing.T) {
	fs := NewMemFS()
	st := mustCreate(t, fs, Options{})
	batches := testBatches(4)
	for _, b := range batches {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate a hard stop with a fully synced WAL.
	re, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, "replayed", tableRows(t, re.Table()), flatten(batches))
	if got := re.Info().Replayed; got != len(batches) {
		t.Errorf("replayed %d batches, want %d", got, len(batches))
	}
	if got := re.Table().Epoch(); got != uint64(len(batches)) {
		t.Errorf("epoch %d, want %d", got, len(batches))
	}
	// The reopened store continues the sequence where the old one left off.
	seq, err := re.Append(testBatches(5)[4])
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(batches)+1) {
		t.Errorf("resumed at seq %d, want %d", seq, len(batches)+1)
	}
}

// TestStoreDiskFS exercises the production filesystem end to end in a
// temp dir: create, auto-flush, reopen, and resume.
func TestStoreDiskFS(t *testing.T) {
	dir := t.TempDir() + "/store"
	st, err := Create(dir, "sales", testSchema(), Options{FlushEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	batches := testBatches(6)
	for _, b := range batches {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireRowsEqual(t, "disk reopen", tableRows(t, re.Table()), flatten(batches))
	if re.Info().Segments == 0 {
		t.Error("auto-flush never sealed a segment")
	}
	if _, err := re.Append(testBatches(7)[6]); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSegTableBacking: a SegTable backing adopts recovered
// segments zero-copy and compacts its tail on flush, so its in-memory
// segment list mirrors the on-disk one.
func TestStoreSegTableBacking(t *testing.T) {
	opt := Options{
		FlushEvery: 8,
		Backing: func(s engine.Schema) engine.MutableRelation {
			return engine.NewSegTable(s)
		},
	}
	fs := NewMemFS()
	st := mustCreate(t, fs, opt)
	batches := testBatches(6)
	for _, b := range batches {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	seg := st.Table().(*engine.SegTable)
	if seg.NumSegments() == 0 {
		t.Fatal("flush did not compact the SegTable tail")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open("data", opt.withFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, "segtable reopen", tableRows(t, re.Table()), flatten(batches))
	reseg := re.Table().(*engine.SegTable)
	if reseg.NumSegments() != re.Info().Segments {
		t.Errorf("backing has %d segments, manifest has %d", reseg.NumSegments(), re.Info().Segments)
	}
	if reseg.TailRows() != 0 {
		t.Errorf("recovered tail holds %d rows, want 0", reseg.TailRows())
	}
	// The compressed kernels answer over the recovered segments.
	n, err := reseg.CountDistinct([]string{"region"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("CountDistinct(region) = %d, want 2", n)
	}
}

func (o Options) withFS(fs FS) Options { o.FS = fs; return o }

// TestStoreRejectsInvalidBatch: bad rows are rejected whole, before any
// WAL byte is written.
func TestStoreRejectsInvalidBatch(t *testing.T) {
	fs := NewMemFS()
	st := mustCreate(t, fs, Options{})
	before, _ := fs.ReadFile("data/" + walName)
	bad := []value.Tuple{
		{value.NewString("east"), value.NewString("p0"), value.NewInt(1)},
		{value.NewString("east"), value.NewInt(7), value.NewInt(2)}, // wrong kind
	}
	if _, err := st.Append(bad); !errors.Is(err, ErrInvalidBatch) {
		t.Fatalf("err = %v, want ErrInvalidBatch", err)
	}
	if _, err := st.Append([]value.Tuple{{value.NewString("x")}}); !errors.Is(err, ErrInvalidBatch) {
		t.Fatal("short row must be rejected")
	}
	after, _ := fs.ReadFile("data/" + walName)
	if !bytes.Equal(before, after) {
		t.Fatal("rejected batch reached the WAL")
	}
	if st.Table().NumRows() != 0 {
		t.Fatal("rejected batch reached the table")
	}
	// A rejection is not a fault: the store keeps serving.
	if _, err := st.Append(testBatches(1)[0]); err != nil {
		t.Fatal(err)
	}
}

// TestStoreFsyncFailurePoisons: when the WAL fsync fails, durability is
// unknown — the append must error and the store must refuse everything
// after, rather than acknowledge on hope.
func TestStoreFsyncFailurePoisons(t *testing.T) {
	ffs := NewFaultFS(nil)
	st := mustCreate(t, ffs, Options{})
	if _, err := st.Append(testBatches(1)[0]); err != nil {
		t.Fatal(err)
	}
	ffs.SyncErrAfter(ffs.syncs + 1) // the next append's WAL fsync
	if _, err := st.Append(testBatches(2)[1]); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("append err = %v, want ErrInjectedIO", err)
	}
	if _, err := st.Append(testBatches(3)[2]); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after fault = %v, want ErrPoisoned", err)
	}
	if err := st.Flush(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("flush after fault = %v, want ErrPoisoned", err)
	}
	if err := st.Err(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Err() = %v", err)
	}
	// Reopening recovers the acknowledged prefix: batch 1 only, or
	// batches 1-2 if the unsynced frame happened to survive — here the
	// inner MemFS kept the written bytes, so both replay.
	re, err := Open("data", Options{FS: ffs.Inner()})
	if err != nil {
		t.Fatal(err)
	}
	if n := re.Table().NumRows(); n < 4 {
		t.Errorf("recovered %d rows, want at least the acked batch (4)", n)
	}
}

// TestStoreShortWritePoisons: a short WAL append leaves a torn frame;
// the store must not ack and must go read-only. Reopen trims the torn
// tail and keeps serving.
func TestStoreShortWritePoisons(t *testing.T) {
	ffs := NewFaultFS(nil)
	st := mustCreate(t, ffs, Options{})
	if _, err := st.Append(testBatches(1)[0]); err != nil {
		t.Fatal(err)
	}
	ffs.ShortWriteAfter(ffs.writes + 1)
	if _, err := st.Append(testBatches(2)[1]); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("append err = %v, want ErrInjectedIO", err)
	}
	if _, err := st.Append(testBatches(3)[2]); !errors.Is(err, ErrPoisoned) {
		t.Fatal("store must be poisoned after a short append")
	}
	re, err := Open("data", Options{FS: ffs.Inner()})
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, "post-torn-frame", tableRows(t, re.Table()), testBatches(1)[0])
	// The trimmed WAL accepts the batch again on a clean boundary.
	if _, err := re.Append(testBatches(2)[1]); err != nil {
		t.Fatal(err)
	}
	re2, err := Open("data", Options{FS: ffs.Inner()})
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, "after retry", tableRows(t, re2.Table()), flatten(testBatches(2)))
}

// TestStoreCreateCollision: creating over an existing store fails.
func TestStoreCreateCollision(t *testing.T) {
	fs := NewMemFS()
	mustCreate(t, fs, Options{})
	if _, err := Create("data", "sales", testSchema(), Options{FS: fs}); !errors.Is(err, ErrStoreExists) {
		t.Fatalf("err = %v, want ErrStoreExists", err)
	}
	if _, err := Open("elsewhere", Options{FS: fs}); !errors.Is(err, ErrNoStore) {
		t.Fatalf("err = %v, want ErrNoStore", err)
	}
}

// TestStoreReadOnlyOpen: a read-only open serves rows (including the
// un-trimmed torn tail case) but refuses writes and repairs nothing.
func TestStoreReadOnlyOpen(t *testing.T) {
	fs := NewMemFS()
	st := mustCreate(t, fs, Options{})
	batches := testBatches(3)
	for _, b := range batches {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the WAL tail by hand.
	wal, _ := fs.ReadFile("data/" + walName)
	torn := append(append([]byte(nil), wal...), 0xde, 0xad)
	tornFS := SeedMemFS(map[string][]byte{
		"data/" + manifestName: mustRead(t, fs, "data/"+manifestName),
		"data/" + walName:      torn,
	})
	ro, err := Open("data", Options{FS: tornFS, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, "readonly", tableRows(t, ro.Table()), flatten(batches))
	if _, err := ro.Append(batches[0]); err == nil {
		t.Fatal("read-only store accepted an append")
	}
	if err := ro.Flush(); err == nil {
		t.Fatal("read-only store accepted a flush")
	}
	if got, _ := tornFS.ReadFile("data/" + walName); !bytes.Equal(got, torn) {
		t.Fatal("read-only open repaired the WAL")
	}
}

func mustRead(t *testing.T, fs FS, path string) []byte {
	t.Helper()
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestExportImportRoundtrip: the JSONL backup reproduces rows and epoch
// in a fresh store.
func TestExportImportRoundtrip(t *testing.T) {
	fs := NewMemFS()
	st := mustCreate(t, fs, Options{})
	batches := testBatches(4)
	for _, b := range batches {
		if _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := st.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	fs2 := NewMemFS()
	im, err := ImportJSONL("restored", bytes.NewReader(buf.Bytes()), Options{FS: fs2})
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, "import", tableRows(t, im.Table()), flatten(batches))
	if got, want := im.Table().Epoch(), st.Table().Epoch(); got != want {
		t.Errorf("imported epoch %d, want %d (stamps must stay comparable)", got, want)
	}
	if im.TableName() != "sales" {
		t.Errorf("imported table %q", im.TableName())
	}
	// The imported store reopens like any other.
	if err := im.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open("restored", Options{FS: fs2})
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, "import reopen", tableRows(t, re.Table()), flatten(batches))

	// A truncated stream fails loudly.
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	short := bytes.Join(lines[:len(lines)-1], []byte("\n"))
	if _, err := ImportJSONL("bad", bytes.NewReader(short), Options{FS: NewMemFS()}); err == nil {
		t.Fatal("truncated backup imported silently")
	}
}

// TestManifestCorruptionFailsLoudly: flipped bytes anywhere in the
// manifest must refuse to load.
func TestManifestCorruptionFailsLoudly(t *testing.T) {
	fs := NewMemFS()
	st := mustCreate(t, fs, Options{})
	if _, err := st.Append(testBatches(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	man := mustRead(t, fs, "data/"+manifestName)
	wal := mustRead(t, fs, "data/"+walName)
	segs := map[string][]byte{}
	names, _ := fs.ReadDir("data")
	for _, n := range names {
		if n != manifestName && n != walName {
			segs["data/"+n] = mustRead(t, fs, "data/"+n)
		}
	}
	for i := 0; i < len(man); i += 7 {
		bad := append([]byte(nil), man...)
		bad[i] ^= 0x40
		seed := map[string][]byte{"data/" + manifestName: bad, "data/" + walName: wal}
		for k, v := range segs {
			seed[k] = v
		}
		if _, err := Open("data", Options{FS: SeedMemFS(seed)}); err == nil {
			t.Fatalf("manifest with byte %d flipped loaded without error", i)
		}
	}
}

// TestStoreNonFiniteFloats: a batch holding NaN and ±Inf is a valid
// batch — it frames into the WAL and scans back, replays after a hard
// stop, and survives sealing into a segment.
func TestStoreNonFiniteFloats(t *testing.T) {
	sch := engine.Schema{{Name: "region", Kind: value.String}, {Name: "x", Kind: value.Float}}
	batch := []value.Tuple{
		{value.NewString("east"), value.NewFloat(math.NaN())},
		{value.NewString("west"), value.NewFloat(math.Inf(1))},
		{value.NewString("east"), value.NewFloat(math.Inf(-1))},
		{value.NewString("west"), value.NewFloat(2.5)},
	}
	frame, err := EncodeFrame(Record{Seq: 1, Rows: batch})
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := ScanWAL(frame)
	if err != nil || len(recs) != 1 {
		t.Fatalf("ScanWAL: %d records, %v", len(recs), err)
	}
	requireRowsEqual(t, "scanned", recs[0].Rows, batch)
	for r, row := range recs[0].Rows {
		if row[1].Kind() != value.Float {
			t.Fatalf("row %d scans back as %s", r, row[1].Kind())
		}
	}

	fs := NewMemFS()
	st, err := Create("data", "t", sch, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(batch); err != nil {
		t.Fatalf("append: %v", err)
	}
	// No Close: the batch comes back from the WAL.
	re, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, "replayed", tableRows(t, re.Table()), batch)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, "sealed", tableRows(t, sealed.Table()), batch)
}
