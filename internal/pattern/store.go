package pattern

import (
	"fmt"
	"path/filepath"
	"strings"
)

// A pattern store persists the offline mining phase's output as one
// versioned JSON file per table in a directory, so the online phase
// (the server's -patterns-dir, or cape explain -patterns) survives
// restarts without re-mining. The format is the WriteJSON wire format
// wrapped in a versioned envelope; serialization is deterministic
// (sorted local models), so committing a store to version control
// yields stable diffs.

// StoreVersion is the current pattern-store file format version.
// Readers reject files written by a newer, unknown version instead of
// silently misreading them.
const StoreVersion = 1

// storeExt is the filename suffix of a store file: <table>.patterns.json.
const storeExt = ".patterns.json"

// storeFileName maps a table name to its file inside a store directory,
// rejecting names that would escape the directory or hide the file.
func storeFileName(table string) (string, error) {
	if table == "" || strings.HasPrefix(table, ".") ||
		strings.ContainsAny(table, `/\`) || table != filepath.Base(table) {
		return "", fmt.Errorf("pattern: table name %q not usable as a store filename", table)
	}
	return table + storeExt, nil
}
