package main

import (
	"path/filepath"
	"strings"
	"testing"

	"cape/internal/engine"
	"cape/internal/value"
)

func TestCmdConvert(t *testing.T) {
	csvPath := writeExampleCSV(t)
	segPath := filepath.Join(t.TempDir(), "pub.seg")
	msg, err := captureStdout(t, func() error {
		return run("convert", []string{"-data", csvPath, "-o", segPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "verified") || !strings.Contains(msg, "encoding") {
		t.Errorf("output = %q", msg)
	}

	// The segment must hold exactly the CSV's rows.
	want, err := engine.ReadCSVFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.OpenSegTable(segPath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumRows() != want.NumRows() {
		t.Fatalf("segment rows = %d, want %d", st.NumRows(), want.NumRows())
	}
	i := 0
	err = st.ScanRows(0, st.NumRows(), func(row value.Tuple) error {
		if !row.Equal(want.Row(i)) {
			t.Fatalf("row %d = %v, want %v", i, row, want.Row(i))
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Missing flags error out.
	if _, err := captureStdout(t, func() error {
		return run("convert", []string{"-data", csvPath})
	}); err == nil {
		t.Error("missing -o should error")
	}
}
