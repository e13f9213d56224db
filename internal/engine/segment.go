package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"os"
	"slices"

	"cape/internal/value"
)

// On-disk columnar segment format (version 1).
//
// A segment is an immutable, sealed slab of rows stored column-wise with
// the same dictionary + compressed-code representation the in-memory
// kernels consume (CompressedCol), so an opened segment's columns feed
// GroupBy/CountDistinct directly — the bit-packed code payload
// is used in place from the mmap'd file and is never decoded into dense
// heap slices. Layout (all integers little-endian):
//
//	header:
//	  magic        [8]byte  "CAPESEG1"
//	  version      uint32   (1)
//	  ncols        uint32
//	  nrows        uint64
//	  schemaLen    uint32   followed by schemaLen bytes of schema JSON
//	  (pad to 8)
//	column blocks, one per column, 8-aligned:
//	  encoding     uint32   1=RLE 2=bit-packed
//	  bitWidth     uint32   packed code width (PACK only, else 0)
//	  dictCount    uint32
//	  runCount     uint32   (RLE only, else 0)
//	  dictBytes    uint64
//	  dataBytes    uint64
//	  dict payload: per value, kind byte (0 null, 1 int, 2 float,
//	                3 string) + payload (int64 / float64 bits / u32 len
//	                + bytes); (pad to 8)
//	  data payload: RLE  → runEnds int32[runCount] ++ runCodes
//	                       int32[runCount]
//	                PACK → codes bit-packed LSB-first into uint64 words
//	  (pad to 8)
//	footer:
//	  per column:  offset uint64, length uint64, crc uint32, pad uint32
//	               (offset/length span the whole column block; crc is
//	               CRC-32C over those bytes)
//	  headerCRC    uint32   CRC-32C over the header bytes
//	  footerCRC    uint32   CRC-32C over the per-column entries
//	  footerOff    uint64   file offset of the footer
//	  magic        [8]byte  "CAPESEGF"
//
// Every checksum is validated eagerly by OpenSegment before any column
// is served; a flipped bit anywhere in the file is rejected at open, not
// discovered mid-query. Version bumps change the leading magic's digit,
// and readers reject versions they do not know.
//
// Dictionary canonicalization: codes identify AppendKey equality
// classes, and the dictionary stores one representative per class (first
// appearance). Values that are AppendKey-equal but not bitwise identical
// — Int(1) vs Float(1.0) — therefore read back as the representative.
// Columns of uniform kind (anything produced by value.Parse or the
// generators) round-trip exactly.

const (
	segMagic     = "CAPESEG1"
	segTailMagic = "CAPESEGF"
	segVersion   = 1
)

var segCRC = crc32.MakeTable(crc32.Castagnoli)

// SegmentWriter accumulates rows column-wise — dictionary map plus
// coalesced runs per column — and seals them into a Segment or a
// segment file. Rows stream through Append; the writer's memory is
// proportional to dictionaries + runs, not rows, so arbitrarily large
// segments build in bounded memory when the data has bounded domains.
type SegmentWriter struct {
	schema Schema
	nrows  int
	cols   []segColBuilder
}

type segColBuilder struct {
	lookup   map[string]int32
	dict     []value.V
	runEnds  []int32
	runCodes []int32
}

// NewSegmentWriter creates a writer for the given schema.
func NewSegmentWriter(schema Schema) *SegmentWriter {
	w := &SegmentWriter{schema: schema.Clone()}
	w.cols = make([]segColBuilder, len(schema))
	for i := range w.cols {
		w.cols[i].lookup = make(map[string]int32, 16)
	}
	return w
}

// Schema returns the writer's schema.
func (w *SegmentWriter) Schema() Schema { return w.schema }

// NumRows reports how many rows have been appended.
func (w *SegmentWriter) NumRows() int { return w.nrows }

// Append adds one row. Kind checking matches Table.Append: values must
// match typed columns unless NULL.
func (w *SegmentWriter) Append(row value.Tuple) error {
	if len(row) != len(w.schema) {
		return fmt.Errorf("engine: arity mismatch: row has %d values, schema %d columns", len(row), len(w.schema))
	}
	for i, v := range row {
		want := w.schema[i].Kind
		if want != value.Null && !v.IsNull() && v.Kind() != want {
			return fmt.Errorf("engine: column %q expects %s, got %s", w.schema[i].Name, want, v.Kind())
		}
	}
	var keyBuf [24]byte
	end := int32(w.nrows + 1)
	for i, v := range row {
		cb := &w.cols[i]
		key := v.AppendKey(keyBuf[:0])
		code, ok := cb.lookup[string(key)]
		if !ok {
			code = int32(len(cb.dict))
			cb.lookup[string(key)] = code
			cb.dict = append(cb.dict, v)
		}
		cb.addRun(code, end)
	}
	w.nrows++
	return nil
}

// AppendRange appends rows [lo, hi) of rel. A whole Table — a dense
// table, or the append tail of a SegTable — sealed into an empty writer
// hands over its dictionaries and codes without keying a value; other
// ranges stream through ScanRows. The segment is the same either way.
func (w *SegmentWriter) AppendRange(rel RowScanner, lo, hi int) error {
	t, _ := rel.(*Table)
	tlo, thi := lo, hi
	if st, ok := rel.(*SegTable); ok && lo == st.sealed {
		t, tlo, thi = st.tail, 0, hi-st.sealed
	}
	if t != nil && w.nrows == 0 && tlo == 0 && thi == t.n && thi > 0 && w.schema.Equal(t.schema) {
		w.adopt(t)
		return nil
	}
	return rel.ScanRows(lo, hi, w.Append)
}

// adopt seals the whole of t into the empty writer. Both assign codes
// in first-appearance order and keep each class's first value, so the
// table's dictionaries and codes are the writer's.
func (w *SegmentWriter) adopt(t *Table) {
	for ci, c := range t.cols {
		cb := &w.cols[ci]
		cb.dict, cb.lookup = slices.Clone(c.Dict), maps.Clone(c.lookup)
		for r, code := range c.Codes {
			cb.addRun(code, int32(r+1))
		}
	}
	w.nrows = t.n
}

// addRun extends the column's last run when it carries code, and
// starts a new run otherwise; end is the exclusive end row.
func (cb *segColBuilder) addRun(code, end int32) {
	if n := len(cb.runCodes); n > 0 && cb.runCodes[n-1] == code {
		cb.runEnds[n-1] = end
	} else {
		cb.runEnds = append(cb.runEnds, end)
		cb.runCodes = append(cb.runCodes, code)
	}
}

// AppendRows appends a batch of rows, validating each.
func (w *SegmentWriter) AppendRows(rows []value.Tuple) error {
	for i, r := range rows {
		if err := w.Append(r); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// sealCol converts one builder into its CompressedCol, choosing RLE or
// bit-packed storage exactly like compressCodes.
func (cb *segColBuilder) sealCol(n int) *CompressedCol {
	cc := &CompressedCol{n: n, dict: cb.dict}
	cc.buildDictMeta()
	bw := bitWidthFor(len(cb.dict))
	rleBytes := len(cb.runEnds) * 8
	packBytes := (n*int(bw) + 63) / 64 * 8
	if rleBytes <= packBytes {
		cc.runEnds, cc.runCodes = cb.runEnds, cb.runCodes
	} else {
		cc.bitWidth = bw
		cc.packed = packRuns(cb.runEnds, cb.runCodes, bw)
	}
	return cc
}

// packRuns bit-packs run-length-encoded codes into words without first
// expanding to a dense code slice.
func packRuns(ends, codes []int32, bw uint32) []byte {
	var n int
	if len(ends) > 0 {
		n = int(ends[len(ends)-1])
	}
	words := (uint64(n)*uint64(bw) + 63) / 64
	out := make([]byte, words*8)
	var acc uint64
	var accBits uint
	w := 0
	prev := int32(0)
	for i, end := range ends {
		c := uint64(uint32(codes[i]))
		for r := prev; r < end; r++ {
			acc |= c << accBits
			accBits += uint(bw)
			if accBits >= 64 {
				binary.LittleEndian.PutUint64(out[w:], acc)
				w += 8
				accBits -= 64
				if accBits > 0 {
					acc = c >> (uint(bw) - accBits)
				} else {
					acc = 0
				}
			}
		}
		prev = end
	}
	if accBits > 0 {
		binary.LittleEndian.PutUint64(out[w:], acc)
	}
	return out
}

// Segment seals the writer into an in-memory Segment (no file). The
// writer must not be used afterwards.
func (w *SegmentWriter) Segment() *Segment {
	seg := &Segment{schema: w.schema, nrows: w.nrows}
	seg.cols = make([]*CompressedCol, len(w.cols))
	for i := range w.cols {
		seg.cols[i] = w.cols[i].sealCol(w.nrows)
	}
	return seg
}

// Encode serializes the writer's contents into one in-memory segment
// image — the exact bytes WriteFile would produce. Callers that need
// control over how (and through what filesystem) the image reaches disk
// — the crash-safe store writes segments via temp-file + rename through
// an injectable FS — encode first and write themselves.
func (w *SegmentWriter) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := w.writeTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFile serializes the writer's contents to path in segment format.
// The writer remains usable (it is not consumed).
func (w *SegmentWriter) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := w.writeTo(f); err != nil {
		return err
	}
	return f.Sync()
}

// writeTo streams the segment image — header, column blocks, footer —
// to out. Column blocks are encoded one at a time, so memory stays
// proportional to the largest single column block.
func (w *SegmentWriter) writeTo(out io.Writer) error {
	// Header.
	schemaJSON, err := json.Marshal(schemaDTO(w.schema))
	if err != nil {
		return err
	}
	var hdr []byte
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, segVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(w.cols)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(w.nrows))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(schemaJSON)))
	hdr = append(hdr, schemaJSON...)
	hdr = pad8(hdr)
	headerCRC := crc32.Checksum(hdr, segCRC)
	if _, err := out.Write(hdr); err != nil {
		return err
	}
	off := uint64(len(hdr))

	// Column blocks.
	type blockRef struct {
		off, length uint64
		crc         uint32
	}
	refs := make([]blockRef, len(w.cols))
	for ci := range w.cols {
		block := w.cols[ci].encodeBlock(w.nrows)
		refs[ci] = blockRef{off: off, length: uint64(len(block)), crc: crc32.Checksum(block, segCRC)}
		if _, err := out.Write(block); err != nil {
			return err
		}
		off += uint64(len(block))
	}

	// Footer.
	var ftr []byte
	for _, r := range refs {
		ftr = binary.LittleEndian.AppendUint64(ftr, r.off)
		ftr = binary.LittleEndian.AppendUint64(ftr, r.length)
		ftr = binary.LittleEndian.AppendUint32(ftr, r.crc)
		ftr = binary.LittleEndian.AppendUint32(ftr, 0)
	}
	footerCRC := crc32.Checksum(ftr, segCRC)
	ftr = binary.LittleEndian.AppendUint32(ftr, headerCRC)
	ftr = binary.LittleEndian.AppendUint32(ftr, footerCRC)
	ftr = binary.LittleEndian.AppendUint64(ftr, off)
	ftr = append(ftr, segTailMagic...)
	if _, err := out.Write(ftr); err != nil {
		return err
	}
	return nil
}

// encodeBlock serializes one column (header + dict + data payloads).
func (cb *segColBuilder) encodeBlock(n int) []byte {
	bw := bitWidthFor(len(cb.dict))
	rleBytes := len(cb.runEnds) * 8
	packBytes := (n*int(bw) + 63) / 64 * 8
	useRLE := rleBytes <= packBytes

	var dict []byte
	for _, v := range cb.dict {
		dict = appendSegValue(dict, v)
	}
	dict = pad8(dict)

	var data []byte
	if useRLE {
		for _, e := range cb.runEnds {
			data = binary.LittleEndian.AppendUint32(data, uint32(e))
		}
		for _, c := range cb.runCodes {
			data = binary.LittleEndian.AppendUint32(data, uint32(c))
		}
	} else {
		data = packRuns(cb.runEnds, cb.runCodes, bw)
	}
	data = pad8(data)

	var blk []byte
	if useRLE {
		blk = binary.LittleEndian.AppendUint32(blk, encRLE)
		blk = binary.LittleEndian.AppendUint32(blk, 0)
	} else {
		blk = binary.LittleEndian.AppendUint32(blk, encPack)
		blk = binary.LittleEndian.AppendUint32(blk, bw)
	}
	blk = binary.LittleEndian.AppendUint32(blk, uint32(len(cb.dict)))
	if useRLE {
		blk = binary.LittleEndian.AppendUint32(blk, uint32(len(cb.runEnds)))
	} else {
		blk = binary.LittleEndian.AppendUint32(blk, 0)
	}
	blk = binary.LittleEndian.AppendUint64(blk, uint64(len(dict)))
	blk = binary.LittleEndian.AppendUint64(blk, uint64(len(data)))
	blk = append(blk, dict...)
	blk = append(blk, data...)
	return blk
}

func pad8(b []byte) []byte {
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

// appendSegValue appends the segment codec encoding of v.
func appendSegValue(dst []byte, v value.V) []byte {
	switch v.Kind() {
	case value.Null:
		return append(dst, 0)
	case value.Int:
		dst = append(dst, 1)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.Int()))
	case value.Float:
		dst = append(dst, 2)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case value.String:
		s := v.Str()
		dst = append(dst, 3)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		return append(dst, s...)
	default:
		panic("engine: unknown value kind")
	}
}

// decodeSegValue decodes one codec value, returning the remaining bytes.
func decodeSegValue(b []byte) (value.V, []byte, error) {
	if len(b) < 1 {
		return value.V{}, nil, fmt.Errorf("engine: truncated dictionary value")
	}
	switch b[0] {
	case 0:
		return value.NewNull(), b[1:], nil
	case 1:
		if len(b) < 9 {
			return value.V{}, nil, fmt.Errorf("engine: truncated int dictionary value")
		}
		return value.NewInt(int64(binary.LittleEndian.Uint64(b[1:]))), b[9:], nil
	case 2:
		if len(b) < 9 {
			return value.V{}, nil, fmt.Errorf("engine: truncated float dictionary value")
		}
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))), b[9:], nil
	case 3:
		if len(b) < 5 {
			return value.V{}, nil, fmt.Errorf("engine: truncated string dictionary value")
		}
		n := int(binary.LittleEndian.Uint32(b[1:]))
		if len(b) < 5+n {
			return value.V{}, nil, fmt.Errorf("engine: truncated string dictionary value")
		}
		return value.NewString(string(b[5 : 5+n])), b[5+n:], nil
	default:
		return value.V{}, nil, fmt.Errorf("engine: unknown dictionary value tag %d", b[0])
	}
}

// schemaDTO is the JSON shape of a schema in the segment header.
type schemaColDTO struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

func schemaDTO(s Schema) []schemaColDTO {
	out := make([]schemaColDTO, len(s))
	for i, c := range s {
		out[i] = schemaColDTO{Name: c.Name, Kind: c.Kind.String()}
	}
	return out
}

func schemaFromDTO(dto []schemaColDTO) (Schema, error) {
	out := make(Schema, len(dto))
	for i, c := range dto {
		var k value.Kind
		switch c.Kind {
		case "null":
			k = value.Null
		case "int":
			k = value.Int
		case "float":
			k = value.Float
		case "string":
			k = value.String
		default:
			return nil, fmt.Errorf("engine: unknown column kind %q in segment schema", c.Kind)
		}
		out[i] = Column{Name: c.Name, Kind: k}
	}
	return out, nil
}

// Segment is an opened (or in-memory sealed) immutable columnar slab.
// Its columns are CompressedCol views; for a file-backed segment the
// bit-packed payloads reference the mmap'd file directly, so closing the
// segment invalidates them. Segments are safe for concurrent reads.
type Segment struct {
	schema Schema
	nrows  int
	cols   []*CompressedCol
	data   []byte
	closer func() error
}

// Schema returns the segment's schema.
func (s *Segment) Schema() Schema { return s.schema }

// NumRows reports the segment's row count.
func (s *Segment) NumRows() int { return s.nrows }

// Col returns the compressed view of column ci.
func (s *Segment) Col(ci int) *CompressedCol { return s.cols[ci] }

// AppendRowAt appends row r's values to buf and returns it — the boxed
// materialization used for result rows.
func (s *Segment) AppendRowAt(r int, buf value.Tuple) value.Tuple {
	for _, cc := range s.cols {
		buf = append(buf, cc.dict[cc.CodeAt(r)])
	}
	return buf
}

// Close releases the mmap (no-op for in-memory segments). The segment's
// columns must not be used afterwards.
func (s *Segment) Close() error {
	s.cols = nil
	s.data = nil
	if s.closer != nil {
		c := s.closer
		s.closer = nil
		return c()
	}
	return nil
}

// OpenSegment maps the segment file at path and validates every
// checksum — header, footer, and each column block — before returning.
// Column code payloads are served from the mapping (bit-packed columns
// are never decoded to dense slices); dictionaries and RLE run vectors
// are decoded to the heap, whose size scales with distinct values and
// runs, not rows.
func OpenSegment(path string) (*Segment, error) {
	data, closer, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	seg, err := openSegmentBytes(data)
	if err != nil {
		if closer != nil {
			closer()
		}
		return nil, err
	}
	seg.closer = closer
	return seg, nil
}

// OpenSegmentBytes validates and opens a segment image held in memory —
// the same checks OpenSegment runs on a mapped file. The returned
// segment serves bit-packed column payloads directly from data, so the
// caller must not mutate or recycle the slice while the segment is in
// use. Recovery paths that read segment files through an injectable
// filesystem (internal/store) open the bytes they read with this.
func OpenSegmentBytes(data []byte) (*Segment, error) {
	return openSegmentBytes(data)
}

func openSegmentBytes(data []byte) (*Segment, error) {
	const tailLen = 4 + 4 + 8 + 8 // headerCRC + footerCRC + footerOff + magic
	if len(data) < len(segMagic)+tailLen {
		return nil, fmt.Errorf("engine: segment file too short (%d bytes)", len(data))
	}
	if string(data[:len(segMagic)]) != segMagic {
		if string(data[:7]) == segMagic[:7] {
			return nil, fmt.Errorf("engine: unsupported segment version (magic %q)", data[:8])
		}
		return nil, fmt.Errorf("engine: not a segment file (bad magic)")
	}
	tail := data[len(data)-tailLen:]
	if string(tail[16:]) != segTailMagic {
		return nil, fmt.Errorf("engine: segment file truncated (bad tail magic)")
	}
	headerCRC := binary.LittleEndian.Uint32(tail[0:])
	footerCRC := binary.LittleEndian.Uint32(tail[4:])
	footerOff := binary.LittleEndian.Uint64(tail[8:])
	if footerOff > uint64(len(data)-tailLen) {
		return nil, fmt.Errorf("engine: segment footer offset out of range")
	}

	// Header.
	h := data[8:]
	version := binary.LittleEndian.Uint32(h[0:])
	if version != segVersion {
		return nil, fmt.Errorf("engine: unsupported segment version %d", version)
	}
	ncols := int(binary.LittleEndian.Uint32(h[4:]))
	nrows64 := binary.LittleEndian.Uint64(h[8:])
	if nrows64 > math.MaxInt32 {
		return nil, fmt.Errorf("engine: segment row count %d out of range", nrows64)
	}
	nrows := int(nrows64)
	schemaLen := int(binary.LittleEndian.Uint32(h[16:]))
	if 20+schemaLen > len(h) {
		return nil, fmt.Errorf("engine: segment schema out of range")
	}
	hdrLen := 8 + 20 + schemaLen
	for hdrLen%8 != 0 {
		hdrLen++
	}
	if hdrLen > len(data) {
		return nil, fmt.Errorf("engine: segment header out of range")
	}
	if crc32.Checksum(data[:hdrLen], segCRC) != headerCRC {
		return nil, fmt.Errorf("engine: segment header checksum mismatch")
	}
	var dto []schemaColDTO
	if err := json.Unmarshal(h[20:20+schemaLen], &dto); err != nil {
		return nil, fmt.Errorf("engine: segment schema: %w", err)
	}
	schema, err := schemaFromDTO(dto)
	if err != nil {
		return nil, err
	}
	if len(schema) != ncols {
		return nil, fmt.Errorf("engine: segment schema has %d columns, header says %d", len(schema), ncols)
	}

	// Footer entries.
	entBytes := uint64(ncols) * 24
	if footerOff+entBytes > uint64(len(data)-tailLen) {
		return nil, fmt.Errorf("engine: segment footer out of range")
	}
	ents := data[footerOff : footerOff+entBytes]
	if crc32.Checksum(ents, segCRC) != footerCRC {
		return nil, fmt.Errorf("engine: segment footer checksum mismatch")
	}

	seg := &Segment{schema: schema, nrows: nrows, data: data}
	seg.cols = make([]*CompressedCol, ncols)
	for ci := 0; ci < ncols; ci++ {
		e := ents[ci*24:]
		off := binary.LittleEndian.Uint64(e[0:])
		length := binary.LittleEndian.Uint64(e[8:])
		crc := binary.LittleEndian.Uint32(e[16:])
		// Bounds are checked without off+length, which wraps for crafted
		// huge offsets and would pass despite pointing outside the file.
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("engine: column %d block out of range", ci)
		}
		blk := data[off : off+length]
		if crc32.Checksum(blk, segCRC) != crc {
			return nil, fmt.Errorf("engine: column %d (%s) block checksum mismatch", ci, schema[ci].Name)
		}
		cc, err := decodeSegCol(blk, nrows)
		if err != nil {
			return nil, fmt.Errorf("engine: column %d (%s): %w", ci, schema[ci].Name, err)
		}
		seg.cols[ci] = cc
	}
	return seg, nil
}

// decodeSegCol parses one column block into a CompressedCol view.
func decodeSegCol(blk []byte, nrows int) (*CompressedCol, error) {
	if len(blk) < 32 {
		return nil, fmt.Errorf("truncated column block")
	}
	enc := binary.LittleEndian.Uint32(blk[0:])
	bw := binary.LittleEndian.Uint32(blk[4:])
	dictCount := int(binary.LittleEndian.Uint32(blk[8:]))
	runCount := int(binary.LittleEndian.Uint32(blk[12:]))
	dictBytes := binary.LittleEndian.Uint64(blk[16:])
	dataBytes := binary.LittleEndian.Uint64(blk[24:])
	// Checked without summing, which wraps for crafted huge lengths.
	if dictBytes > uint64(len(blk))-32 || dataBytes > uint64(len(blk))-32-dictBytes {
		return nil, fmt.Errorf("column payload out of range")
	}
	dictBuf := blk[32 : 32+dictBytes]
	dataBuf := blk[32+dictBytes : 32+dictBytes+dataBytes]

	cc := &CompressedCol{n: nrows}
	cc.dict = make([]value.V, 0, dictCount)
	rest := dictBuf
	for i := 0; i < dictCount; i++ {
		var v value.V
		var err error
		v, rest, err = decodeSegValue(rest)
		if err != nil {
			return nil, err
		}
		cc.dict = append(cc.dict, v)
	}
	cc.buildDictMeta()

	switch enc {
	case encRLE:
		if uint64(runCount)*8 > dataBytes {
			return nil, fmt.Errorf("run vectors out of range")
		}
		cc.runEnds = make([]int32, runCount)
		cc.runCodes = make([]int32, runCount)
		for i := 0; i < runCount; i++ {
			cc.runEnds[i] = int32(binary.LittleEndian.Uint32(dataBuf[i*4:]))
		}
		base := runCount * 4
		for i := 0; i < runCount; i++ {
			cc.runCodes[i] = int32(binary.LittleEndian.Uint32(dataBuf[base+i*4:]))
		}
		if runCount > 0 && int(cc.runEnds[runCount-1]) != nrows {
			return nil, fmt.Errorf("run ends do not cover the segment (%d != %d)", cc.runEnds[runCount-1], nrows)
		}
		if runCount == 0 && nrows > 0 {
			return nil, fmt.Errorf("empty run vector for %d rows", nrows)
		}
		// Run ends must be positive and strictly increasing, or the run
		// cursor's seek and CodeAt's binary search index out of range (or
		// serve wrong rows) on a CRC-consistent crafted file.
		prev := int32(0)
		for _, end := range cc.runEnds {
			if end <= prev {
				return nil, fmt.Errorf("run ends not strictly increasing (%d after %d)", end, prev)
			}
			prev = end
		}
		for _, c := range cc.runCodes {
			if int(c) < 0 || int(c) >= dictCount {
				return nil, fmt.Errorf("run code %d out of dictionary range", c)
			}
		}
	case encPack:
		if bw == 0 || bw > 32 {
			return nil, fmt.Errorf("invalid bit width %d", bw)
		}
		need := (uint64(nrows)*uint64(bw) + 63) / 64 * 8
		if need > dataBytes {
			return nil, fmt.Errorf("packed payload too short (%d < %d)", dataBytes, need)
		}
		cc.bitWidth = bw
		cc.packed = dataBuf[:need]
		// Codes are range-checked lazily by consumers via the dictionary
		// length; validate the maximum here so a corrupt-but-checksummed
		// file cannot index out of the dictionary.
		for i := 0; i < nrows; i++ {
			if c := cc.unpack(i); int(c) >= dictCount {
				return nil, fmt.Errorf("packed code %d out of dictionary range at row %d", c, i)
			}
		}
	default:
		return nil, fmt.Errorf("unknown column encoding %d", enc)
	}
	return cc, nil
}
