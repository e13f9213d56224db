package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"cape/internal/dataset"
	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/value"
)

// tableName is the one table every workload loads.
const tableName = "crime"

// shardKey partitions the sharded deployment; every served pattern has
// it in F and every sharded question groups by it.
const shardKey = "community"

// crimeAttrs are the six Crime attributes, in generator order.
var crimeAttrs = []string{"type", "community", "year", "month", "district", "block"}

// countAgg is the aggregate of every mined pattern and every question.
var countAgg = engine.AggSpec{Func: engine.Count}

// mineOptions is the mining job of every workload: ψ=3, count(*), the
// thresholds of the paper-scale Figure-4 runs (looser ones admit
// nothing to compare, tighter ones admit no patterns over Crime).
func mineOptions() mining.Options {
	return mining.Options{
		MaxPatternSize: 3,
		Attributes:     crimeAttrs,
		Thresholds:     pattern.Thresholds{Theta: 0.25, LocalSupport: 4, Lambda: 0.25, GlobalSupport: 3},
		AggFuncs:       []engine.AggFunc{engine.Count},
	}
}

// crimeCommunities is the generator's community count (its default is
// 25): 10 communities make 400 blocks, which keeps one maintained
// append near 0.1 s, so a request phase with 100 of them fits a run.
const crimeCommunities = 10

// generatorSeed fixes the Crime stream. What an explain or an append
// costs follows from which patterns hold, and that from the generator's
// trend model and from single rows (a pattern at the confidence
// threshold flips with one fragment): tables generated from the run's
// seed held 42 to 63 patterns over seeds 1–3, and windows of one stream
// 12 to 15 on the sharded workload, each a different workload with
// goodput ±20 %. So every seed sees the same rows and the same append
// batches, in an order drawn from the seed — group counts, and with
// them the pattern set at every epoch, are the same for all seeds —
// and the seed decides what a run is asked: which groups, in which
// order and direction.
const generatorSeed = 1

// rotation is where the run's table starts in the fixed stream: one of
// rows/16 positions, drawn from the seed. Rows before it are delivered
// last.
func rotation(seed int64, rows int) int {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	return int(h.Sum64() % uint64(rows/16+1))
}

// streamTable delivers the run's table — the first rows rows of the
// fixed Crime stream, rotated by the seed's offset — to fn in batches,
// and returns the tail: the extra rows that follow, in stream order,
// which feed the append batches.
func streamTable(seed int64, rows, extra int, fn func([]value.Tuple) error) (tail []value.Tuple, err error) {
	off := rotation(seed, rows)
	cfg := dataset.CrimeConfig{Rows: rows + extra, Seed: generatorSeed, NumAttrs: len(crimeAttrs), NumCommunities: crimeCommunities}
	head := make([]value.Tuple, 0, off) // rows [0, off): held back until the rest is out
	pos := 0
	err = dataset.StreamCrime(cfg, 8192, func(b []value.Tuple) error {
		for len(b) > 0 {
			switch {
			case pos < off:
				n := min(len(b), off-pos)
				head = append(head, b[:n]...)
				pos, b = pos+n, b[n:]
			case pos < rows:
				n := min(len(b), rows-pos)
				if err := fn(b[:n]); err != nil {
					return err
				}
				pos, b = pos+n, b[n:]
			default:
				tail = append(tail, b...)
				pos, b = pos+len(b), nil
			}
		}
		return nil
	})
	if err == nil && len(head) > 0 {
		err = fn(head)
	}
	return tail, err
}

// denseTable materializes the run's table in memory.
func denseTable(seed int64, rows, extra int) (*engine.Table, []value.Tuple, error) {
	tab := engine.NewTable(crimeSchema())
	tail, err := streamTable(seed, rows, extra, tab.AppendRows)
	return tab, tail, err
}

func crimeSchema() engine.Schema {
	return dataset.CrimeSchema(dataset.CrimeConfig{NumAttrs: len(crimeAttrs)})
}

// question is one user question in both forms the two front doors
// take: group-by + tuple strings for HTTP, values for the library. The
// aggregate value is resolved at ask time, because appends move it.
type question struct {
	GroupBy []string
	Values  value.Tuple
	Dir     explain.Direction
}

func (q question) tupleStrings() []string {
	out := make([]string, len(q.Values))
	for i, v := range q.Values {
		out[i] = v.String()
	}
	return out
}

// questionPool draws n distinct questions, rotating over the group-by
// shapes, from the groups of the base table whose count is at or above
// the shape's median (the paper's bias towards large groups, which are
// the expensive ones). Deterministic in (table, shapes, n, seed).
func questionPool(tab engine.Relation, shapes [][]string, n int, seed int64) ([]question, error) {
	rng := rand.New(rand.NewSource(seed))
	perShape := make([][]value.Tuple, len(shapes))
	for i, g := range shapes {
		grouped, err := tab.GroupBy(g, []engine.AggSpec{countAgg})
		if err != nil {
			return nil, err
		}
		rows := append([]value.Tuple(nil), grouped.Rows()...)
		sort.SliceStable(rows, func(a, b int) bool {
			return value.Compare(rows[a][len(g)], rows[b][len(g)]) > 0
		})
		rows = rows[:(len(rows)+1)/2]
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		perShape[i] = rows
	}
	out := make([]question, 0, n)
	for k := 0; ; k++ {
		progressed := false
		for s, g := range shapes {
			if k >= len(perShape[s]) {
				continue
			}
			progressed = true
			dir := explain.Low
			if rng.Intn(2) == 1 {
				dir = explain.High
			}
			out = append(out, question{GroupBy: g, Values: perShape[s][k][:len(g)].Clone(), Dir: dir})
			if len(out) == n {
				return out, nil
			}
		}
		if !progressed {
			return nil, fmt.Errorf("question pool: shapes %v hold only %d distinct groups, want %d", shapes, len(out), n)
		}
	}
}

// tailRows is how many rows after the table's window the append
// batches need: with oneCommunity four times the rows they hold, so
// every community has enough for the batches it is asked for.
func tailRows(n, size int, oneCommunity bool) int {
	if oneCommunity {
		return 4*n*size + 2000
	}
	return n * size
}

// appendBatches cuts n batches of size rows from the tail, in stream
// order, and rotates the rows of each by the seed. With oneCommunity
// batch i holds the next rows of community i mod C only, so a sharded
// deployment routes it to exactly one shard.
func appendBatches(seed int64, tail []value.Tuple, n, size int, oneCommunity bool) ([][]value.Tuple, error) {
	out := make([][]value.Tuple, n)
	rotate := func() {
		for i, b := range out {
			k := rotation(seed+int64(i), 16*size) % size
			out[i] = append(append(make([]value.Tuple, 0, size), b[k:]...), b[:k]...)
		}
	}
	if !oneCommunity {
		if len(tail) < n*size {
			return nil, fmt.Errorf("append batches: tail holds %d rows, want %d", len(tail), n*size)
		}
		for i := range out {
			out[i] = tail[i*size : (i+1)*size]
		}
		rotate()
		return out, nil
	}
	byComm := make(map[int64][]value.Tuple)
	var comms []int64
	for _, r := range tail {
		c := r[1].Int()
		if _, ok := byComm[c]; !ok {
			comms = append(comms, c)
		}
		byComm[c] = append(byComm[c], r)
	}
	sort.Slice(comms, func(a, b int) bool { return comms[a] < comms[b] })
	for i := range out {
		c := comms[i%len(comms)]
		if len(byComm[c]) < size {
			return nil, fmt.Errorf("append batches: community %d ran out of rows at batch %d", c, i)
		}
		out[i], byComm[c] = byComm[c][:size], byComm[c][size:]
	}
	rotate()
	return out, nil
}

// zipfPicks draws n indices into a pool of the given size, Zipf(s)
// distributed, so a few hot questions dominate the stream. The draw is
// the same for every seed — how often a question repeats, and with it
// the number of cache misses, is part of the workload; the seed orders
// the pool, so which question is hot is not.
func zipfPicks(n, pool int, s float64) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(generatorSeed)), s, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// ---- input hashes ----

// inputHasher fingerprints generated inputs so two result files can be
// refused as incomparable when their inputs differ.
type inputHasher struct{ h hash.Hash }

func newInputHasher() *inputHasher { return &inputHasher{h: sha256.New()} }

func (ih *inputHasher) rows(rows []value.Tuple) {
	var buf []byte
	for _, r := range rows {
		buf = r.AppendKey(buf[:0])
		ih.h.Write(buf)
		ih.h.Write([]byte{'\n'})
	}
}

func (ih *inputHasher) sum() string { return hex.EncodeToString(ih.h.Sum(nil))[:16] }

func hashQuestions(qs []question, picks []int) string {
	ih := newInputHasher()
	for _, q := range qs {
		fmt.Fprintf(ih.h, "%s|%s|%s\n", strings.Join(q.GroupBy, ","), q.Values.Key(), q.Dir)
	}
	for _, p := range picks {
		fmt.Fprintf(ih.h, "%d,", p)
	}
	return ih.sum()
}

func hashBatches(batches [][]value.Tuple) string {
	ih := newInputHasher()
	for _, b := range batches {
		ih.rows(b)
		ih.h.Write([]byte{0})
	}
	return ih.sum()
}
