package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cape/internal/engine"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/value"
)

// TestCmdAppendMaintainsStore is the end-to-end CLI round trip: mine a
// stamped store, append JSONL rows through 'cape append', and pin the
// updated store byte-identical to a cold re-mine over the grown dataset.
func TestCmdAppendMaintainsStore(t *testing.T) {
	csv := writeExampleCSV(t)
	dir := t.TempDir()
	mineArgs := []string{
		"-data", csv, "-out", dir,
		"-theta", "0.5", "-localsupp", "3", "-lambda", "0.3", "-globalsupp", "2",
	}
	if _, err := captureStdout(t, func() error { return run("mine", mineArgs) }); err != nil {
		t.Fatal(err)
	}

	rowsPath := filepath.Join(t.TempDir(), "rows.jsonl")
	jsonl := strings.Join([]string{
		`["AX", "VLDB", 2008]`,
		``, // blank lines are skipped
		`["NEW", "SIGKDD", 2009]`,
		`["AY", "ICDE", 2005]`,
	}, "\n")
	if err := os.WriteFile(rowsPath, []byte(jsonl), 0o644); err != nil {
		t.Fatal(err)
	}
	grown := filepath.Join(t.TempDir(), "grown.csv")
	out, status, err := captureOutput(t, func() error {
		return run("append", []string{
			"-data", csv, "-rows", rowsPath, "-patterns-dir", dir, "-o", grown,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "appended 3 rows") {
		t.Errorf("append output = %q", out)
	}
	if strings.Contains(out+status, "warning") {
		t.Errorf("fresh store should not warn: %q", out+status)
	}

	// The updated store must equal a cold re-mine of the grown dataset
	// under the store's own spec.
	entries, err := pattern.LoadStoreEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Spec == nil || entries[0].Stamp == nil {
		t.Fatalf("store entries = %+v", entries)
	}
	tab, err := engine.ReadCSVFile(grown)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Stamp.Rows != tab.NumRows() {
		t.Errorf("stamp rows = %d, want %d", entries[0].Stamp.Rows, tab.NumRows())
	}
	opt, err := mining.OptionsFromSpec(entries[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mining.ARPMine(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := pattern.WriteJSON(&got, entries[0].Patterns); err != nil {
		t.Fatal(err)
	}
	if err := pattern.WriteJSON(&want, res.Patterns); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("maintained store diverges from re-mine of grown dataset:\n%s\nvs\n%s", &got, &want)
	}

	// A second append against the already-grown dataset must detect that
	// the original CSV (unchanged) no longer matches the store's stamp.
	_, status, err = captureOutput(t, func() error {
		return run("append", []string{"-data", csv, "-rows", rowsPath, "-patterns-dir", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "stale") {
		t.Errorf("second append against the un-grown CSV should warn stale: %q", status)
	}
}

// TestCmdAppendErrors covers the guard rails: missing flags, missing
// store, malformed JSONL.
func TestCmdAppendErrors(t *testing.T) {
	csv := writeExampleCSV(t)
	if _, err := captureStdout(t, func() error { return run("append", nil) }); err == nil {
		t.Error("missing flags should error")
	}
	if _, err := captureStdout(t, func() error {
		return run("append", []string{"-data", csv, "-rows", csv, "-patterns-dir", t.TempDir()})
	}); err == nil {
		t.Error("missing store should error")
	}

	dir := t.TempDir()
	if _, err := captureStdout(t, func() error {
		return run("mine", []string{"-data", csv, "-out", dir,
			"-theta", "0.5", "-localsupp", "3", "-lambda", "0.3", "-globalsupp", "2"})
	}); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"not":"an array"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error {
		return run("append", []string{"-data", csv, "-rows", bad, "-patterns-dir", dir})
	}); err == nil {
		t.Error("malformed JSONL should error")
	}
}

// TestReadJSONLRows pins the row decoding rules: the CLI passes each
// line's elements through as raw JSON, and the server's parser maps raw
// scalars to String/Int/Float/NULL and passes kind-tagged objects
// through.
func TestReadJSONLRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.jsonl")
	content := `["s", 3, 2.5, null, {"k":"int","i":7}]`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	raws, err := readRawJSONLRows(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raws) != 1 {
		t.Fatalf("rows = %d", len(raws))
	}
	row, err := value.ParseJSONTuple(raws[0])
	if err != nil {
		t.Fatal(err)
	}
	want := value.Tuple{
		value.NewString("s"), value.NewInt(3), value.NewFloat(2.5),
		value.NewNull(), value.NewInt(7),
	}
	if !row.Equal(want) {
		t.Errorf("row = %v, want %v", row, want)
	}
}
