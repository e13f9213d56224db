package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"cape/internal/engine"
	"cape/internal/value"
)

// FuzzWALRecord throws arbitrary bytes at the WAL frame/JSONL decoder.
// The contract under fuzzing: never panic, never allocate past the
// frame bound, and — the recovery invariant — whatever prefix it does
// accept must re-encode to exactly the input bytes it consumed
// (goodLen), with strictly increasing sequence numbers preserved as
// written. Corrupted CRCs and truncated frames must surface as errors,
// not records.
func FuzzWALRecord(f *testing.F) {
	// Seeds: a valid two-frame log, plus each canonical corruption.
	frame1, err := EncodeFrame(Record{Seq: 1, Rows: []value.Tuple{
		{value.NewString("east"), value.NewInt(7)},
	}})
	if err != nil {
		f.Fatal(err)
	}
	frame2, err := EncodeFrame(Record{Seq: 2, Rows: []value.Tuple{
		{value.NewNull(), value.NewFloat(1.5)},
	}})
	if err != nil {
		f.Fatal(err)
	}
	valid := append(append([]byte(nil), frame1...), frame2...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])  // truncated payload
	f.Add(valid[:len(frame1)+5]) // truncated header
	flipped := append([]byte(nil), valid...)
	flipped[6] ^= 0xff // corrupt payload byte → CRC mismatch
	f.Add(flipped)
	badCRC := append([]byte(nil), valid...)
	badCRC[4] ^= 0x01 // corrupt stored CRC
	f.Add(badCRC)
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint32(huge, 1<<31) // absurd length field
	f.Add(huge)
	f.Add([]byte{})
	f.Add([]byte("not a frame at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen, err := ScanWAL(data)
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d outside [0, %d]", goodLen, len(data))
		}
		if err == nil && goodLen != len(data) {
			t.Fatalf("no error but only %d of %d bytes consumed", goodLen, len(data))
		}
		// Round-trip: the accepted prefix re-encodes byte-identically,
		// so recovery's truncate-to-goodLen keeps exactly these records.
		off := 0
		for i, rec := range recs {
			enc, eerr := EncodeFrame(rec)
			if eerr != nil {
				t.Fatalf("record %d decoded but does not re-encode: %v", i, eerr)
			}
			if off+len(enc) > goodLen {
				t.Fatalf("record %d runs past goodLen", i)
			}
			if string(enc) != string(data[off:off+len(enc)]) {
				// JSON with different key order / whitespace decodes to
				// the same record; the frame boundary must still match
				// the original length field.
				length := int(binary.LittleEndian.Uint32(data[off:]))
				off += 8 + length
				continue
			}
			off += len(enc)
		}
		if off > goodLen {
			t.Fatalf("records cover %d bytes, goodLen %d", off, goodLen)
		}
	})
}

// FuzzParseManifest throws arbitrary bytes at the manifest decoder. It
// must never panic, and whatever it accepts must survive the encode
// round trip: encoding the parsed manifest yields an image that parses
// again and encodes to the same bytes.
func FuzzParseManifest(f *testing.F) {
	schema, err := engine.MarshalSchemaJSON(engine.Schema{
		{Name: "region", Kind: value.String},
		{Name: "n", Kind: value.Int},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range []*manifest{
		{Version: manifestVersion, Table: "sales", Schema: schema},
		{Version: manifestVersion, Table: "sales", Schema: schema, Epoch: 9, Rows: 70, FlushedSeq: 4,
			Segments: []segRef{{File: "seg-000001.capeseg", Rows: 50}, {File: "seg-000002.capeseg", Rows: 20}}},
	} {
		img, err := m.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		f.Add(img[:len(img)/2])                                // torn write
		f.Add(bytes.Replace(img, []byte("9"), []byte("8"), 1)) // CRC mismatch
	}
	f.Add([]byte(`{"version":99,"crc":"00000000"}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte("not json"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		img, err := m.encode()
		if err != nil {
			t.Fatalf("accepted manifest does not encode: %v", err)
		}
		again, err := parseManifest(img)
		if err != nil {
			t.Fatalf("encoded manifest %q does not parse: %v", img, err)
		}
		img2, err := again.encode()
		if err != nil || !bytes.Equal(img, img2) {
			t.Fatalf("round trip changed the image:\n%q\n%q (%v)", img, img2, err)
		}
	})
}
