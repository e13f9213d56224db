package engine

import (
	"fmt"
	"hash/fnv"

	"cape/internal/value"
)

// Partitioner assigns rows (and questions about them) to shards by
// hashing the row's values on a designated key attribute set — the
// "fragment key" of the sharded deployment. The contract that makes a
// sharded explanation byte-identical to a single-node one (DESIGN.md
// §15) is locality: every pattern served by the deployment has the key
// inside its partition attributes F, so a fragment's rows — and with
// them every candidate counterbalance t' with t'[F] = t[F], the NORM
// selection, and the question's own group — land on exactly one shard.
//
// The hash is FNV-1a over the values' canonical key encoding
// (value.AppendKey), so it is stable across processes, platforms, and
// restarts — a requirement for routing appends to the shard that owns
// the rows it already holds. Int(7) and Float(7.0) hash identically
// because AppendKey encodes them identically, matching the engine's
// grouping equality.
type Partitioner struct {
	// Key names the shard-key attributes, in the order their values are
	// hashed. Order matters for the hash; keep it fixed per deployment.
	Key []string
	// N is the shard count. Must be ≥ 1.
	N int
}

// Validate rejects unusable partitioners.
func (p Partitioner) Validate() error {
	if len(p.Key) == 0 {
		return fmt.Errorf("engine: partitioner needs at least one key attribute")
	}
	seen := make(map[string]bool, len(p.Key))
	for _, a := range p.Key {
		if seen[a] {
			return fmt.Errorf("engine: duplicate partition key attribute %q", a)
		}
		seen[a] = true
	}
	if p.N < 1 {
		return fmt.Errorf("engine: partitioner shard count %d must be ≥ 1", p.N)
	}
	return nil
}

// ShardOf maps a key tuple (the values of the Key attributes, in Key
// order) to its owning shard index in [0, N).
func (p Partitioner) ShardOf(key value.Tuple) int {
	h := fnv.New64a()
	var buf [64]byte
	_, _ = h.Write(key.AppendKey(buf[:0]))
	return int(h.Sum64() % uint64(p.N))
}

// KeyIndices resolves the key attributes against a schema, for routing
// whole rows.
func (p Partitioner) KeyIndices(s Schema) ([]int, error) {
	return s.Indices(p.Key)
}

// ShardOfRow maps a full row to its shard via precomputed key column
// indices (from KeyIndices).
func (p Partitioner) ShardOfRow(row value.Tuple, keyIdx []int) int {
	h := fnv.New64a()
	var buf [64]byte
	b := buf[:0]
	for _, ci := range keyIdx {
		b = row[ci].AppendKey(b)
	}
	_, _ = h.Write(b)
	return int(h.Sum64() % uint64(p.N))
}

// PartitionRows splits rows into per-shard groups, preserving the input
// order within each shard — the property keyed append routing relies on:
// replaying every shard's sub-batches in order reproduces the prefix of
// the global append history that shard owns.
func (p Partitioner) PartitionRows(rows []value.Tuple, keyIdx []int) [][]value.Tuple {
	out := make([][]value.Tuple, p.N)
	for _, row := range rows {
		s := p.ShardOfRow(row, keyIdx)
		out[s] = append(out[s], row)
	}
	return out
}

// PartitionTable splits a table's rows into N per-shard tables with the
// same schema (used when bootstrapping a sharded deployment from one
// CSV). Row order within each shard follows the input table.
func (p Partitioner) PartitionTable(t *Table) ([]*Table, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	keyIdx, err := p.KeyIndices(t.Schema())
	if err != nil {
		return nil, err
	}
	rows := make([][]int32, p.N)
	r := int32(0)
	// The callback never fails, so neither does the scan.
	_ = t.ScanRows(0, t.NumRows(), func(row value.Tuple) error {
		s := p.ShardOfRow(row, keyIdx)
		rows[s] = append(rows[s], r)
		r++
		return nil
	})
	parts := make([]*Table, p.N)
	for s := range parts {
		parts[s] = t.gather(rows[s])
	}
	return parts, nil
}
