// Package engine is an in-memory relational engine: typed schemas, row
// tables, and the operators CAPE's mining and explanation algorithms are
// built from — multi-aggregate grouping (which also serves as distinct
// projection), distinct counting, equality selection over a dense table,
// multi-key sort codes, and a CUBE operator with group-size filtering. It
// stands in for the PostgreSQL instance the paper ran on; the mining
// variants differ only in which of these operators they invoke and how
// often.
package engine

import (
	"encoding/json"
	"fmt"

	"cape/internal/value"
)

// Column describes one attribute of a schema. Kind value.Null means the
// column is untyped (accepts any value); a concrete kind is enforced on
// Append.
type Column struct {
	Name string
	Kind value.Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// Index returns the position of the named column, or -1 if absent.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in schema order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Indices resolves a list of column names to positions. It fails on the
// first unknown name.
func (s Schema) Indices(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		idx := s.Index(n)
		if idx < 0 {
			return nil, fmt.Errorf("engine: unknown column %q", n)
		}
		out[i] = idx
	}
	return out, nil
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two schemas have identical names and kinds in the
// same order.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// ValidateRow checks one row against the schema: matching arity, and
// each value matching the column kind unless the column is untyped
// (Kind value.Null) or the value is NULL. This is the exact check Table
// and SegTable apply on append, exported so write-ahead logging can
// reject a bad batch before a record is framed.
func (s Schema) ValidateRow(row value.Tuple) error {
	if len(row) != len(s) {
		return fmt.Errorf("engine: arity mismatch: row has %d values, schema %d columns", len(row), len(s))
	}
	for i, v := range row {
		want := s[i].Kind
		if want != value.Null && !v.IsNull() && v.Kind() != want {
			return fmt.Errorf("engine: column %q expects %s, got %s", s[i].Name, want, v.Kind())
		}
	}
	return nil
}

// MarshalSchemaJSON encodes the schema in the same {name, kind} JSON
// shape the segment header embeds, for use by other persisted envelopes
// (the store manifest, JSONL backups).
func MarshalSchemaJSON(s Schema) ([]byte, error) {
	return json.Marshal(schemaDTO(s))
}

// ParseSchemaJSON decodes a schema encoded by MarshalSchemaJSON,
// rejecting unknown column kinds.
func ParseSchemaJSON(data []byte) (Schema, error) {
	var dto []schemaColDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("engine: decoding schema JSON: %w", err)
	}
	return schemaFromDTO(dto)
}
