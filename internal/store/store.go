package store

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"cape/internal/engine"
	"cape/internal/value"
)

// SyncPolicy says when the WAL is fsynced relative to acknowledging an
// append.
type SyncPolicy int

const (
	// SyncAlways fsyncs the WAL before every append returns. An
	// acknowledged batch survives any crash (the ack-durability
	// invariant the recovery matrix checks).
	SyncAlways SyncPolicy = iota
	// SyncNever leaves WAL writeback to the OS and to flushes. Crashes
	// may lose a suffix of acknowledged batches — never a prefix, never
	// a torn batch.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("store: unknown sync policy %q (want always or never)", s)
	}
}

// ErrInvalidBatch wraps validation failures on appended rows: the batch
// was rejected whole and nothing was logged or applied.
var ErrInvalidBatch = errors.New("store: invalid batch")

// ErrNoStore is returned by Open when dir holds no store (no manifest).
var ErrNoStore = errors.New("store: no store in directory")

// ErrStoreExists is returned by Create/Bootstrap when dir already holds
// one.
var ErrStoreExists = errors.New("store: store already exists")

// ErrPoisoned wraps the fault that disabled a store. After any write
// whose durability is unknown (a failed fsync, a failed WAL append or
// flush), the store refuses all further writes — acknowledging on top
// of an unknown-durability state would break the ack invariant.
var ErrPoisoned = errors.New("store: disabled after I/O fault")

// Options configures a store.
type Options struct {
	// FS is the filesystem to run on; nil means DiskFS.
	FS FS
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// FlushEvery seals the WAL tail into a segment whenever at least
	// this many unflushed rows have accumulated; 0 disables automatic
	// flushing (Flush and Close still seal).
	FlushEvery int
	// Backing builds the in-memory relation the store maintains. nil
	// means a dense *engine.Table — the representation the server
	// catalogues. A *engine.SegTable backing additionally compacts its
	// tail on every flush, keeping memory bounded at paper scale.
	Backing func(engine.Schema) engine.MutableRelation
	// ReadOnly opens without repairing the WAL tail or taking the
	// append handle; Append and Flush fail.
	ReadOnly bool
}

func (o Options) fs() FS {
	if o.FS == nil {
		return DiskFS{}
	}
	return o.FS
}

func (o Options) backing(schema engine.Schema) engine.MutableRelation {
	if o.Backing == nil {
		return engine.NewTable(schema)
	}
	return o.Backing(schema)
}

// epochRestorer is the recovery hook both engine table representations
// implement.
type epochRestorer interface{ RestoreEpoch(uint64) }

// Info is a snapshot of a store's state, for logs and status output.
type Info struct {
	Table      string
	Rows       int
	Epoch      uint64
	Segments   int
	SealedRows int
	// Replayed is how many WAL batches the last Open replayed.
	Replayed   int
	NextSeq    uint64
	FlushedSeq uint64
	Sync       SyncPolicy
}

// Store is a crash-safe durable table: an in-memory relation backed by
// sealed CAPESEG1 segments plus a write-ahead log of appended batches.
//
// The write path is: validate → frame into the WAL (fsync per policy) →
// acknowledge → apply to the in-memory relation → maybe flush. A flush
// scans the unsealed rows into a new segment file, writes it atomically
// (temp + fsync + rename + dir fsync), swaps in a manifest naming it,
// and truncates the WAL. Every prefix of that sequence is a recoverable
// on-disk state; see DESIGN.md §14 for the case analysis.
//
// Store is safe for concurrent use; writes serialize on one mutex.
// Reads of the backing relation follow the engine's contract (no
// concurrent mutation) — callers must arrange their own read/write
// exclusion around Table(), as the server does with its append lock.
type Store struct {
	mu  sync.Mutex
	fsi FS
	dir string
	opt Options

	table  string
	schema engine.Schema
	tab    engine.MutableRelation

	wal         File
	nextSeq     uint64 // sequence number of the next batch
	flushedSeq  uint64 // last sequence folded into segments
	flushedRows int    // rows covered by the manifest's segments
	segments    []segRef
	replayed    int
	failed      error // sticky poison; non-nil disables writes
}

// Create initializes a new empty store in dir.
func Create(dir, table string, schema engine.Schema, opt Options) (*Store, error) {
	return create(dir, table, opt, func() (engine.MutableRelation, error) {
		return opt.backing(schema), nil
	})
}

// Bootstrap initializes a new store in dir seeded with an existing
// relation: its rows are sealed into a first segment and its current
// epoch is recorded, so pattern stores stamped against the live table
// remain valid against the recovered one. The relation becomes the
// store's backing.
func Bootstrap(dir, table string, src engine.MutableRelation, opt Options) (*Store, error) {
	return create(dir, table, opt, func() (engine.MutableRelation, error) {
		return src, nil
	})
}

func create(dir, table string, opt Options, backing func() (engine.MutableRelation, error)) (*Store, error) {
	if table == "" {
		return nil, fmt.Errorf("store: empty table name")
	}
	fsi := opt.fs()
	if _, err := fsi.ReadFile(join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrStoreExists, dir)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: probe %s: %v", dir, err)
	}
	if err := fsi.MkdirAll(dir); err != nil {
		return nil, err
	}
	tab, err := backing()
	if err != nil {
		return nil, err
	}
	schemaJSON, err := engine.MarshalSchemaJSON(tab.Schema())
	if err != nil {
		return nil, err
	}
	s := &Store{
		fsi:     fsi,
		dir:     dir,
		opt:     opt,
		table:   table,
		schema:  tab.Schema(),
		tab:     tab,
		nextSeq: 1,
	}
	// Seed rows (Bootstrap) are sealed into a first segment before the
	// manifest names the store live.
	if tab.NumRows() > 0 {
		if err := s.writeSegment(0, tab.NumRows()); err != nil {
			return nil, err
		}
		s.flushedRows = tab.NumRows()
	}
	m := &manifest{
		Version:    manifestVersion,
		Table:      table,
		Schema:     schemaJSON,
		Epoch:      tab.Epoch(),
		Rows:       s.flushedRows,
		FlushedSeq: 0,
		Segments:   s.segments,
	}
	if err := s.writeManifest(m); err != nil {
		return nil, err
	}
	if !opt.ReadOnly {
		wal, err := fsi.OpenAppend(join(dir, walName))
		if err != nil {
			return nil, err
		}
		// The WAL's directory entry must be durable before any frame in
		// it is: fsyncing file content does not persist the file's name.
		if err := fsi.SyncDir(dir); err != nil {
			return nil, err
		}
		s.wal = wal
	}
	return s, nil
}

// Open recovers the store in dir: loads the manifest's segments into a
// fresh backing relation, restores the recorded epoch, replays the WAL
// tail (one epoch tick per batch, reproducing the live trajectory), and
// truncates any torn WAL suffix so new appends land on a clean
// boundary. Any inconsistency it cannot prove harmless — a sequence
// gap, a row-count mismatch, a corrupt manifest or segment — is a loud
// error, never a silently degraded table.
func Open(dir string, opt Options) (*Store, error) {
	fsi := opt.fs()
	rawMan, err := fsi.ReadFile(join(dir, manifestName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNoStore, dir)
		}
		return nil, err
	}
	m, err := parseManifest(rawMan)
	if err != nil {
		return nil, err
	}
	schema, err := engine.ParseSchemaJSON(m.Schema)
	if err != nil {
		return nil, fmt.Errorf("store: manifest schema: %v", err)
	}
	tab := opt.backing(schema)
	if !tab.Schema().Equal(schema) {
		return nil, fmt.Errorf("store: backing schema does not match manifest")
	}
	rows := 0
	for _, ref := range m.Segments {
		seg, err := fsi.OpenSegment(join(dir, ref.File))
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: %v", ref.File, err)
		}
		if seg.NumRows() != ref.Rows {
			return nil, fmt.Errorf("store: segment %s has %d rows, manifest says %d", ref.File, seg.NumRows(), ref.Rows)
		}
		if !seg.Schema().Equal(schema) {
			return nil, fmt.Errorf("store: segment %s schema does not match manifest", ref.File)
		}
		if err := loadSegment(tab, seg); err != nil {
			return nil, fmt.Errorf("store: segment %s: %v", ref.File, err)
		}
		rows += ref.Rows
	}
	if rows != m.Rows {
		return nil, fmt.Errorf("store: segments hold %d rows, manifest says %d", rows, m.Rows)
	}
	er, ok := tab.(epochRestorer)
	if !ok {
		return nil, fmt.Errorf("store: backing %T cannot restore epochs", tab)
	}
	er.RestoreEpoch(m.Epoch)

	s := &Store{
		fsi:         fsi,
		dir:         dir,
		opt:         opt,
		table:       m.Table,
		schema:      schema,
		tab:         tab,
		flushedSeq:  m.FlushedSeq,
		flushedRows: m.Rows,
		segments:    m.Segments,
	}

	walData, err := fsi.ReadFile(join(dir, walName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	recs, goodLen, scanErr := ScanWAL(walData)
	seq := m.FlushedSeq
	for _, rec := range recs {
		if rec.Seq <= m.FlushedSeq {
			// Already folded into a segment; the crash hit between the
			// manifest swap and the WAL truncation.
			continue
		}
		if rec.Seq != seq+1 {
			return nil, fmt.Errorf("store: WAL sequence gap: have %d, next record is %d", seq, rec.Seq)
		}
		for i, row := range rec.Rows {
			if err := schema.ValidateRow(row); err != nil {
				return nil, fmt.Errorf("store: WAL batch %d row %d: %v", rec.Seq, i, err)
			}
		}
		if err := tab.AppendRows(rec.Rows); err != nil {
			return nil, fmt.Errorf("store: WAL batch %d: %v", rec.Seq, err)
		}
		seq = rec.Seq
		s.replayed++
	}
	s.nextSeq = seq + 1
	if scanErr != nil && !opt.ReadOnly {
		// Torn tail: discard it so new frames land on a frame boundary.
		if err := fsi.Truncate(join(dir, walName), int64(goodLen)); err != nil {
			return nil, fmt.Errorf("store: trim torn WAL tail: %v", err)
		}
	}
	if !opt.ReadOnly {
		wal, err := fsi.OpenAppend(join(dir, walName))
		if err != nil {
			return nil, err
		}
		// A crash may have erased the WAL's directory entry (it is
		// recreated above); make the name durable before trusting frames
		// to it.
		if err := fsi.SyncDir(dir); err != nil {
			return nil, err
		}
		s.wal = wal
	}
	return s, nil
}

// loadSegment feeds a sealed segment into the backing relation. A
// SegTable adopts it wholesale (zero-copy); anything else gets the rows
// decoded and appended.
func loadSegment(tab engine.MutableRelation, seg *engine.Segment) error {
	if st, ok := tab.(*engine.SegTable); ok {
		return st.AddSegment(seg)
	}
	n := seg.NumRows()
	width := len(seg.Schema())
	const chunk = 4096
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		slab := make(value.Tuple, 0, (hi-lo)*width)
		batch := make([]value.Tuple, 0, hi-lo)
		for r := lo; r < hi; r++ {
			slab = seg.AppendRowAt(r, slab)
			batch = append(batch, slab[len(slab)-width:len(slab):len(slab)])
		}
		if err := tab.AppendRows(batch); err != nil {
			return err
		}
	}
	return nil
}

// Table returns the backing relation. The engine's concurrency contract
// applies: readers must not race Append/Flush (the server's append lock
// provides that exclusion).
func (s *Store) Table() engine.MutableRelation { return s.tab }

// TableName returns the table name recorded in the manifest.
func (s *Store) TableName() string { return s.table }

// Schema returns the store's schema.
func (s *Store) Schema() engine.Schema { return s.schema }

// Info returns a snapshot of the store's state.
func (s *Store) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Info{
		Table:      s.table,
		Rows:       s.tab.NumRows(),
		Epoch:      s.tab.Epoch(),
		Segments:   len(s.segments),
		SealedRows: s.flushedRows,
		Replayed:   s.replayed,
		NextSeq:    s.nextSeq,
		FlushedSeq: s.flushedSeq,
		Sync:       s.opt.Sync,
	}
}

// Err reports the sticky fault that disabled the store, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// poison records a fatal write-path fault. Every later write returns
// the wrapped error; reads of the in-memory table remain valid (it only
// ever holds acknowledged or about-to-be-acknowledged batches).
func (s *Store) poison(err error) error {
	s.failed = fmt.Errorf("%w: %v", ErrPoisoned, err)
	return err
}

// Append durably logs one batch and applies it to the backing relation,
// returning the batch's WAL sequence number. The acknowledgement
// contract: when Append returns nil under SyncAlways, the batch
// survives any crash; under SyncNever it survives any crash after the
// next successful flush. On any fault whose durability is unknown the
// store poisons itself and refuses further writes.
func (s *Store) Append(rows []value.Tuple) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return 0, s.failed
	}
	if s.opt.ReadOnly {
		return 0, fmt.Errorf("store: read-only")
	}
	if len(rows) == 0 {
		return s.nextSeq - 1, nil
	}
	for i, row := range rows {
		if err := s.schema.ValidateRow(row); err != nil {
			return 0, fmt.Errorf("%w: row %d: %v", ErrInvalidBatch, i, err)
		}
	}
	seq := s.nextSeq
	frame, err := EncodeFrame(Record{Seq: seq, Rows: rows})
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalidBatch, err)
	}
	if n, err := s.wal.Write(frame); err != nil {
		return 0, s.poison(fmt.Errorf("store: WAL append: %w", err))
	} else if n != len(frame) {
		return 0, s.poison(fmt.Errorf("store: WAL short append: %d of %d bytes", n, len(frame)))
	}
	if s.opt.Sync == SyncAlways {
		if err := s.wal.Sync(); err != nil {
			return 0, s.poison(fmt.Errorf("store: WAL fsync: %w", err))
		}
	}
	s.nextSeq++
	if err := s.tab.AppendRows(rows); err != nil {
		// Cannot happen post-validation; if it does, the memory and
		// disk images have diverged — stop everything.
		return 0, s.poison(fmt.Errorf("store: apply batch %d: %w", seq, err))
	}
	// The batch is acknowledged from here on: an auto-flush failure
	// poisons the store for later writes but must not retract this ack
	// (the rows are already WAL-durable).
	if s.opt.FlushEvery > 0 && s.tab.NumRows()-s.flushedRows >= s.opt.FlushEvery {
		if err := s.flushLocked(); err != nil {
			s.poison(fmt.Errorf("store: flush after batch %d: %w", seq, err))
		}
	}
	return seq, nil
}

// Flush seals all unsealed rows into a new segment, swaps the manifest,
// and truncates the WAL.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if s.opt.ReadOnly {
		return fmt.Errorf("store: read-only")
	}
	if err := s.flushLocked(); err != nil {
		return s.poison(err)
	}
	return nil
}

func (s *Store) flushLocked() error {
	n := s.tab.NumRows()
	if n == s.flushedRows {
		return nil
	}
	if err := s.writeSegment(s.flushedRows, n); err != nil {
		return err
	}
	// A SegTable backing seals its in-memory tail too, so its segment
	// list mirrors the on-disk one and memory stays bounded. (This
	// ticks its epoch — see the recovery note in DESIGN.md §14.)
	if c, ok := s.tab.(interface{ Compact() error }); ok {
		if err := c.Compact(); err != nil {
			return err
		}
	}
	m := &manifest{
		Version:    manifestVersion,
		Table:      s.table,
		Epoch:      s.tab.Epoch(),
		Rows:       n,
		FlushedSeq: s.nextSeq - 1,
		Segments:   s.segments,
	}
	var err error
	if m.Schema, err = engine.MarshalSchemaJSON(s.schema); err != nil {
		return err
	}
	if err := s.writeManifest(m); err != nil {
		return err
	}
	s.flushedSeq = s.nextSeq - 1
	s.flushedRows = n
	// The WAL's frames are all folded in now. Truncating is a pure
	// optimization — recovery skips stale frames by sequence number —
	// so a crash anywhere in here is still a valid state.
	if err := s.fsi.Truncate(join(s.dir, walName), 0); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	return nil
}

// writeSegment seals rows [lo, hi) of the backing relation into the
// next numbered segment file, written atomically and recorded in
// s.segments (the manifest swap that makes it live is the caller's).
func (s *Store) writeSegment(lo, hi int) error {
	w := engine.NewSegmentWriter(s.schema)
	if err := w.AppendRange(s.tab, lo, hi); err != nil {
		return err
	}
	blob, err := w.Encode()
	if err != nil {
		return err
	}
	name := fmt.Sprintf("seg-%06d.capeseg", len(s.segments)+1)
	if err := s.writeFileAtomic(name, blob); err != nil {
		return err
	}
	s.segments = append(s.segments, segRef{File: name, Rows: hi - lo})
	return nil
}

func (s *Store) writeManifest(m *manifest) error {
	data, err := m.encode()
	if err != nil {
		return err
	}
	return s.writeFileAtomic(manifestName, data)
}

// writeFileAtomic is the temp-write + fsync + rename + dir-fsync
// protocol: after it returns, the file is durable under its final name;
// a crash anywhere inside leaves either the old file or the new one.
func (s *Store) writeFileAtomic(name string, data []byte) error {
	tmp := join(s.dir, name+".tmp")
	f, err := s.fsi.Create(tmp)
	if err != nil {
		return err
	}
	if n, err := f.Write(data); err != nil {
		f.Close()
		return err
	} else if n != len(data) {
		f.Close()
		return fmt.Errorf("store: short write to %s: %d of %d bytes", tmp, n, len(data))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fsi.Rename(tmp, join(s.dir, name)); err != nil {
		return err
	}
	return s.fsi.SyncDir(s.dir)
}

// Close flushes unsealed rows (so a clean restart replays nothing) and
// releases the WAL handle. A poisoned or read-only store skips the
// flush.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	if s.failed == nil && !s.opt.ReadOnly {
		if err := s.flushLocked(); err != nil {
			first = s.poison(err)
		}
	}
	if s.wal != nil {
		if err := s.wal.Close(); err != nil && first == nil {
			first = err
		}
		s.wal = nil
	}
	return first
}
