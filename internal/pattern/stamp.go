package pattern

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store stamping: the envelope optionally records the source table's
// shape (epoch and row count) at mine time and the mining spec the set
// was produced with, so loaders can detect staleness instead of serving
// silently outdated patterns, and can rebuild an incremental maintainer
// able to fold future appends. Both fields are optional: SaveStoreStamped
// omits a nil stamp or spec, and files written without them (by earlier
// builds) load with nil fields.

// StoreStamp records the source table's shape when the set was mined.
type StoreStamp struct {
	// Epoch is the table's mutation epoch at mine time.
	Epoch uint64 `json:"epoch"`
	// Rows is the table's row count at mine time.
	Rows int `json:"rows"`
}

// StoreSpec records the mining parameters, enough to reconstruct an
// equivalent mining configuration without importing the mining package.
type StoreSpec struct {
	MaxPatternSize int      `json:"max_pattern_size"`
	Attributes     []string `json:"attributes"`
	Theta          float64  `json:"theta"`
	LocalSupport   int      `json:"local_support"`
	Lambda         float64  `json:"lambda"`
	GlobalSupport  int      `json:"global_support"`
	Aggregates     []string `json:"aggregates"`
	Models         []string `json:"models"`
}

// StoreEntry is one loaded store file with its optional stamp and spec.
type StoreEntry struct {
	Table    string
	Patterns []*Mined
	Stamp    *StoreStamp
	Spec     *StoreSpec
}

// stampedStoreFile is the on-disk envelope with the optional stamping
// fields. It decodes legacy files too (absent fields stay nil).
type stampedStoreFile struct {
	Version  int         `json:"version"`
	Table    string      `json:"table"`
	Stamp    *StoreStamp `json:"stamp,omitempty"`
	Spec     *StoreSpec  `json:"spec,omitempty"`
	Patterns []jsonMined `json:"patterns"`
}

// SaveStoreStamped writes the pattern set of one table with a source
// stamp and mining spec into dir (creating it if needed) and returns the
// file path. An existing store file for the same table is replaced
// atomically (write to a temp file, then rename), so a concurrent reader
// never observes a partial file.
func SaveStoreStamped(dir, table string, patterns []*Mined, stamp *StoreStamp, spec *StoreSpec) (string, error) {
	name, err := storeFileName(table)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", " ")
	err = enc.Encode(stampedStoreFile{
		Version: StoreVersion, Table: table,
		Stamp: stamp, Spec: spec,
		Patterns: toJSON(patterns),
	})
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, nil
}

// LoadStoreEntry reads one store file, keeping the stamp and spec when
// present. Legacy files written without them load with nil fields.
func LoadStoreEntry(path string) (*StoreEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf stampedStoreFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("pattern: decoding store %s: %w", path, err)
	}
	if sf.Version != StoreVersion {
		return nil, fmt.Errorf("pattern: store %s has version %d, this build reads version %d",
			path, sf.Version, StoreVersion)
	}
	if sf.Table == "" {
		return nil, fmt.Errorf("pattern: store %s has no table name", path)
	}
	pats, err := fromJSON(sf.Patterns)
	if err != nil {
		return nil, fmt.Errorf("pattern: store %s: %w", path, err)
	}
	return &StoreEntry{Table: sf.Table, Patterns: pats, Stamp: sf.Stamp, Spec: sf.Spec}, nil
}

// LoadStoreEntries reads every store file in dir, returning entries in
// sorted file-name order. Non-store files are ignored; two files naming
// one table, and a missing directory, are errors.
func LoadStoreEntries(dir string) ([]*StoreEntry, error) {
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(dirents))
	for _, e := range dirents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), storeExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	seen := make(map[string]bool, len(names))
	out := make([]*StoreEntry, 0, len(names))
	for _, name := range names {
		entry, err := LoadStoreEntry(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if seen[entry.Table] {
			return nil, fmt.Errorf("pattern: store %s duplicates table %q", name, entry.Table)
		}
		seen[entry.Table] = true
		out = append(out, entry)
	}
	return out, nil
}
