package pattern

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestStampedStoreRoundTrip: SaveStoreStamped → LoadStoreEntry /
// LoadStoreEntries must reproduce the patterns, stamp, and spec.
func TestStampedStoreRoundTrip(t *testing.T) {
	patterns := minedForJSON(t)
	stamp := &StoreStamp{Epoch: 7, Rows: 5000}
	spec := &StoreSpec{
		MaxPatternSize: 3,
		Attributes:     []string{"author", "venue", "year"},
		Theta:          0.5, LocalSupport: 3, Lambda: 0.5, GlobalSupport: 2,
		Aggregates: []string{"count", "sum"},
		Models:     []string{"const", "linear"},
	}
	dir := t.TempDir()
	path, err := SaveStoreStamped(dir, "pub", patterns, stamp, spec)
	if err != nil {
		t.Fatal(err)
	}

	entry, err := LoadStoreEntry(path)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Table != "pub" {
		t.Fatalf("table = %q", entry.Table)
	}
	requireSamePatterns(t, patterns, entry.Patterns)
	if !reflect.DeepEqual(entry.Stamp, stamp) {
		t.Fatalf("stamp = %+v, want %+v", entry.Stamp, stamp)
	}
	if !reflect.DeepEqual(entry.Spec, spec) {
		t.Fatalf("spec = %+v, want %+v", entry.Spec, spec)
	}

	entries, err := LoadStoreEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Table != "pub" || entries[0].Stamp == nil {
		t.Fatalf("LoadStoreEntries = %+v", entries)
	}

	// The stamped file decodes through the envelope earlier builds read
	// (unknown fields are ignored), so older builds can read new stores.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var legacy struct {
		Version  int         `json:"version"`
		Table    string      `json:"table"`
		Patterns []jsonMined `json:"patterns"`
	}
	if err := json.Unmarshal(data, &legacy); err != nil || legacy.Table != "pub" {
		t.Fatalf("legacy envelope: table %q, err %v", legacy.Table, err)
	}
	back, err := fromJSON(legacy.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePatterns(t, patterns, back)
}

// legacyStore is minedForJSON's set as builds before stamping wrote it:
// the version, the table and the patterns, with no stamp and no spec.
const legacyStore = `{
 "version": 1,
 "table": "pub",
 "patterns": [
  {
   "f": [
    "author"
   ],
   "v": [
    "year"
   ],
   "agg": "count",
   "model": "Const",
   "numFragments": 3,
   "numSupported": 2,
   "confidence": 1,
   "maxPosDev": 1,
   "maxNegDev": -1,
   "locals": [
    {
     "frag": [
      {
       "k": "string",
       "s": "AX"
      }
     ],
     "params": [
      2.5
     ],
     "gof": 0.6547208460185769,
     "support": 2,
     "maxPosDev": 0.5,
     "maxNegDev": -0.5
    },
    {
     "frag": [
      {
       "k": "string",
       "s": "AY"
      }
     ],
     "params": [
      2
     ],
     "gof": 0.31731050786291415,
     "support": 2,
     "maxPosDev": 1,
     "maxNegDev": -1
    }
   ]
  }
 ]
}
`

// TestStampedStoreLoadsLegacyFiles: a store file written before stamping
// (no stamp, no spec) loads through the stamped reader with nil fields.
func TestStampedStoreLoadsLegacyFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "pub.patterns.json"), []byte(legacyStore), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := LoadStoreEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries", len(entries))
	}
	e := entries[0]
	if e.Table != "pub" || e.Stamp != nil || e.Spec != nil {
		t.Fatalf("legacy store produced table %q stamp %+v spec %+v", e.Table, e.Stamp, e.Spec)
	}
	requireSamePatterns(t, minedForJSON(t), e.Patterns)
}

// TestStampedStoreNilStamp: saving with nil stamp/spec omits the fields
// entirely — byte-identical to the legacy file of the same set.
func TestStampedStoreNilStamp(t *testing.T) {
	path, err := SaveStoreStamped(t.TempDir(), "pub", minedForJSON(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != legacyStore {
		t.Fatalf("nil-stamped file differs from the legacy file:\n%s\nvs\n%s", data, legacyStore)
	}
}
