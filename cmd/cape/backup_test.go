package main

import (
	"path/filepath"
	"testing"

	"cape/internal/dataset"
	"cape/internal/engine"
	"cape/internal/store"
)

// TestCmdExportImportRoundTrip: a store exported to JSONL and imported
// into a fresh directory recovers the same table — rows, epoch, name.
func TestCmdExportImportRoundTrip(t *testing.T) {
	tmp := t.TempDir()
	src := filepath.Join(tmp, "pub")
	orig := dataset.RunningExample()
	st, err := store.Bootstrap(src, "pub", orig, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	backup := filepath.Join(tmp, "pub.jsonl")
	if err := run("export", []string{"-store", src, "-o", backup}); err != nil {
		t.Fatalf("export: %v", err)
	}
	dst := filepath.Join(tmp, "restored")
	if err := run("import", []string{"-store", dst, "-i", backup}); err != nil {
		t.Fatalf("import: %v", err)
	}

	re, err := store.Open(dst, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	info := re.Info()
	if info.Table != "pub" || info.Rows != orig.NumRows() || info.Epoch != orig.Epoch() {
		t.Fatalf("restored table=%q rows=%d epoch=%d, want pub/%d/%d",
			info.Table, info.Rows, info.Epoch, orig.NumRows(), orig.Epoch())
	}
	tab := re.Table().(*engine.Table)
	for i, row := range orig.Rows() {
		for c := range row {
			if got := tab.Row(i)[c]; got != row[c] {
				t.Fatalf("row %d col %d = %s, want %s", i, c, got, row[c])
			}
		}
	}

	// Importing over an existing store must refuse, not clobber.
	if err := run("import", []string{"-store", dst, "-i", backup}); err == nil {
		t.Fatal("import over an existing store succeeded")
	}
}
