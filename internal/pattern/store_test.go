package pattern

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStoreRoundTrip: SaveStoreStamped without a stamp or spec →
// LoadStoreEntry must reproduce the pattern set exactly, with nil
// stamp and spec, and the directory listing form must agree with
// loading the file directly.
func TestStoreRoundTrip(t *testing.T) {
	patterns := minedForJSON(t)
	dir := t.TempDir()
	path, err := SaveStoreStamped(dir, "pub", patterns, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.HasSuffix(path, ".patterns.json") {
		t.Fatalf("store path = %q", path)
	}

	entry, err := LoadStoreEntry(path)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Table != "pub" || entry.Stamp != nil || entry.Spec != nil {
		t.Fatalf("entry = table %q stamp %+v spec %+v", entry.Table, entry.Stamp, entry.Spec)
	}
	requireSamePatterns(t, patterns, entry.Patterns)

	all, err := LoadStoreEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].Table != "pub" {
		t.Fatalf("LoadStoreEntries returned %+v", all)
	}
	requireSamePatterns(t, patterns, all[0].Patterns)
}

// requireSamePatterns compares pattern sets the same way the JSON
// round-trip test does: keys, counters, and every local model.
func requireSamePatterns(t *testing.T, want, got []*Mined) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d vs %d patterns", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Pattern.Key() != g.Pattern.Key() {
			t.Fatalf("pattern %d key %q vs %q", i, w.Pattern.Key(), g.Pattern.Key())
		}
		if w.NumFragments != g.NumFragments || w.NumSupported != g.NumSupported ||
			w.Confidence != g.Confidence {
			t.Errorf("pattern %q counters differ", w.Pattern.Key())
		}
		if len(w.Locals) != len(g.Locals) {
			t.Fatalf("pattern %q: %d vs %d locals", w.Pattern.Key(), len(w.Locals), len(g.Locals))
		}
		for k, wl := range w.Locals {
			gl, ok := g.Locals[k]
			if !ok {
				t.Fatalf("pattern %q lost fragment %v", w.Pattern.Key(), wl.Frag)
			}
			if gl.Support != wl.Support || gl.Model.GoF() != wl.Model.GoF() ||
				gl.Model.Predict(nil) != wl.Model.Predict(nil) {
				t.Errorf("pattern %q fragment %v differs", w.Pattern.Key(), wl.Frag)
			}
		}
	}
}

// TestStoreDeterministicBytes: saving the same set twice must produce
// byte-identical files (sorted local models), so stores diff cleanly.
func TestStoreDeterministicBytes(t *testing.T) {
	patterns := minedForJSON(t)
	stamp := &StoreStamp{Epoch: 3, Rows: 12}
	spec := &StoreSpec{MaxPatternSize: 2, Attributes: []string{"author", "year"}, Aggregates: []string{"count"}}
	dirA, dirB := t.TempDir(), t.TempDir()
	pathA, err := SaveStoreStamped(dirA, "pub", patterns, stamp, spec)
	if err != nil {
		t.Fatal(err)
	}
	pathB, err := SaveStoreStamped(dirB, "pub", patterns, stamp, spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("two saves of the same pattern set produced different bytes")
	}
}

// TestStoreOverwriteAndMultipleTables: a re-save replaces the table's
// file, leaving no temporary file behind, and unrelated tables coexist
// in one directory.
func TestStoreOverwriteAndMultipleTables(t *testing.T) {
	patterns := minedForJSON(t)
	dir := t.TempDir()
	if _, err := SaveStoreStamped(dir, "pub", patterns, &StoreStamp{Epoch: 1, Rows: 10}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveStoreStamped(dir, "pub", patterns, &StoreStamp{Epoch: 2, Rows: 11}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveStoreStamped(dir, "crime", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	// A stray non-store file must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("%d files in the store directory, want 3 (a temporary file left behind?)", len(files))
	}
	all, err := LoadStoreEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].Table != "crime" || all[1].Table != "pub" {
		t.Fatalf("LoadStoreEntries returned %+v, want crime and pub", all)
	}
	if len(all[1].Patterns) != len(patterns) || len(all[0].Patterns) != 0 {
		t.Fatalf("tables = pub:%d crime:%d", len(all[1].Patterns), len(all[0].Patterns))
	}
	if s := all[1].Stamp; s == nil || s.Epoch != 2 || s.Rows != 11 {
		t.Fatalf("pub stamp = %+v, want the second save's", s)
	}
}

// TestStoreRejectsBadInput: unusable table names, future versions, and
// files claiming a duplicate table must all error.
func TestStoreRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, ".hidden"} {
		if _, err := SaveStoreStamped(dir, bad, nil, nil, nil); err == nil {
			t.Errorf("table name %q accepted", bad)
		}
	}

	future := stampedStoreFile{Version: StoreVersion + 1, Table: "pub"}
	data, _ := json.Marshal(future)
	path := filepath.Join(dir, "pub.patterns.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStoreEntry(path); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("future version load: err = %v", err)
	}
	if _, err := LoadStoreEntries(dir); err == nil {
		t.Error("LoadStoreEntries accepted a future-version file")
	}

	// Two files claiming one table: detectable only via LoadStoreEntries.
	okFile := stampedStoreFile{Version: StoreVersion, Table: "pub"}
	data, _ = json.Marshal(okFile)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "alias.patterns.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStoreEntries(dir); err == nil || !strings.Contains(err.Error(), "duplicates") {
		t.Errorf("duplicate table load: err = %v", err)
	}

	if _, err := LoadStoreEntries(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing directory accepted")
	}
}
