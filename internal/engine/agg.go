package engine

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"strings"

	"cape/internal/value"
)

// hashSeed keys the group-by hash chains; one process-wide seed keeps
// hashes comparable across calls without exposing them anywhere.
var hashSeed = maphash.MakeSeed()

// AggFunc enumerates the aggregate functions the engine evaluates.
type AggFunc uint8

const (
	// Count counts rows (count(*)) or non-null values of an argument.
	Count AggFunc = iota
	// Sum adds numeric values.
	Sum
	// Avg averages numeric values.
	Avg
	// Min takes the minimum under value.Compare order.
	Min
	// Max takes the maximum under value.Compare order.
	Max
)

// String returns the lowercase SQL-ish name.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// ParseAggFunc converts a name back to an AggFunc.
func ParseAggFunc(s string) (AggFunc, error) {
	switch strings.ToLower(s) {
	case "count":
		return Count, nil
	case "sum":
		return Sum, nil
	case "avg":
		return Avg, nil
	case "min":
		return Min, nil
	case "max":
		return Max, nil
	}
	return 0, fmt.Errorf("engine: unknown aggregate %q", s)
}

// AggSpec is one aggregate expression, e.g. count(*) or sum(amount).
// Arg "*" (or "") with Count counts rows.
type AggSpec struct {
	Func AggFunc
	Arg  string
}

// ParseAggSpec parses a rendered aggregate expression of the form
// "func(arg)" — the inverse of AggSpec.String. An empty string parses
// to count(*); non-count aggregates require a non-star argument.
func ParseAggSpec(s string) (AggSpec, error) {
	if s == "" || s == "count(*)" {
		return AggSpec{Func: Count}, nil
	}
	i := strings.IndexByte(s, '(')
	if i <= 0 || s[len(s)-1] != ')' {
		return AggSpec{}, fmt.Errorf("engine: aggregate %q must look like func(arg)", s)
	}
	f, err := ParseAggFunc(s[:i])
	if err != nil {
		return AggSpec{}, err
	}
	a := AggSpec{Func: f, Arg: s[i+1 : len(s)-1]}
	if a.IsStar() && f != Count {
		return AggSpec{}, fmt.Errorf("engine: %s requires an argument", f)
	}
	return a, nil
}

// String renders "func(arg)" — the output column name used by GroupBy.
func (a AggSpec) String() string {
	arg := a.Arg
	if arg == "" {
		arg = "*"
	}
	return a.Func.String() + "(" + arg + ")"
}

// IsStar reports whether the aggregate is count(*) style (no argument).
func (a AggSpec) IsStar() bool { return a.Arg == "" || a.Arg == "*" }

// aggState accumulates one aggregate over one group. The fields a
// count or sum touches lead, so those folds stay within one cache line;
// ext holds the running minimum of a Min or maximum of a Max (a state
// serves one aggregate, never both).
type aggState struct {
	count    int64
	sumF     float64
	sumI     int64
	anyFloat bool
	seen     bool
	ext      value.V
}

func (s *aggState) add(v value.V, f AggFunc, star bool) {
	switch f {
	case Count:
		if star || !v.IsNull() {
			s.count++
		}
	case Sum, Avg:
		switch v.Kind() {
		case value.Int:
			s.sumI += v.Int()
			s.sumF += float64(v.Int())
			s.count++
		case value.Float:
			s.sumF += v.Float()
			s.anyFloat = true
			s.count++
		}
	case Min, Max:
		if !v.IsNull() {
			s.extend(v, f)
		}
	}
}

// extend folds one non-NULL Min/Max candidate: strict Compare, so the
// first-encountered of Compare-equal values wins.
func (s *aggState) extend(v value.V, f AggFunc) {
	if !s.seen {
		s.ext, s.seen = v, true
		return
	}
	if c := value.Compare(v, s.ext); f == Min && c < 0 || f == Max && c > 0 {
		s.ext = v
	}
}

func (s *aggState) result(f AggFunc) value.V {
	switch f {
	case Count:
		return value.NewInt(s.count)
	case Sum:
		if s.count == 0 {
			return value.NewNull()
		}
		if s.anyFloat {
			return value.NewFloat(s.sumF)
		}
		return value.NewInt(s.sumI)
	case Avg:
		if s.count == 0 {
			return value.NewNull()
		}
		return value.NewFloat(s.sumF / float64(s.count))
	case Min, Max:
		if !s.seen {
			return value.NewNull()
		}
		return s.ext
	default:
		return value.NewNull()
	}
}

// AggAccum is the exported face of one aggregate accumulator: the exact
// fold GroupBy runs per group, resumable across appends. Feeding it the
// argument values of a group's rows in row order and calling Result
// yields a value bitwise identical to GroupBy over those rows — the
// float sum is accumulated in the same order, the Int-vs-Float result
// kind follows the same anyFloat rule — which is what lets incremental
// pattern maintenance extend retained group aggregates instead of
// recomputing them (appended rows always land at the table tail, so the
// fold order of old rows never changes).
//
// Callers retain one per group per aggregate, so it carries the two
// facts of the AggSpec the fold reads, not the spec.
type AggAccum struct {
	st   aggState
	fn   AggFunc
	star bool
}

// NewAggAccum returns an empty accumulator for the given aggregate.
func NewAggAccum(spec AggSpec) AggAccum {
	return AggAccum{fn: spec.Func, star: spec.IsStar()}
}

// Add folds one row's argument value. For count(*) pass any value
// (including NULL); it is counted regardless.
func (a *AggAccum) Add(v value.V) {
	a.st.add(v, a.fn, a.star)
}

// Result returns the aggregate over everything folded so far.
func (a *AggAccum) Result() value.V {
	return a.st.result(a.fn)
}

// aggCol is one planned aggregate: the spec plus the resolved column
// index of its argument (-1 for count(*)).
type aggCol struct {
	spec AggSpec
	idx  int
}

// groupPlan resolves, against schema s, the group columns, aggregate
// arguments and output schema every GroupBy implementation shares.
func groupPlan(s Schema, groupCols []string, aggs []AggSpec) (gIdx []int, aCols []aggCol, sch Schema, err error) {
	gIdx, err = s.Indices(groupCols)
	if err != nil {
		return nil, nil, nil, err
	}
	aCols = make([]aggCol, len(aggs))
	for i, a := range aggs {
		ac := aggCol{spec: a, idx: -1}
		if !a.IsStar() {
			ci := s.Index(a.Arg)
			if ci < 0 {
				return nil, nil, nil, fmt.Errorf("engine: unknown aggregate argument %q", a.Arg)
			}
			ac.idx = ci
		} else if a.Func != Count {
			return nil, nil, nil, fmt.Errorf("engine: %s requires an argument", a.Func)
		}
		aCols[i] = ac
	}
	sch = make(Schema, 0, len(gIdx)+len(aggs))
	for _, ci := range gIdx {
		sch = append(sch, s[ci])
	}
	for _, a := range aggs {
		kind := value.Null // result kind varies (Int/Float/arg kind)
		sch = append(sch, Column{Name: a.String(), Kind: kind})
	}
	return gIdx, aCols, sch, nil
}

// GroupBy evaluates SELECT groupCols, aggs... FROM t GROUP BY groupCols.
// The output schema is the group columns followed by one column per
// aggregate, named by AggSpec.String(). Groups appear in first-appearance
// order. groupCols may be empty, producing a single global group.
//
// The table runs the parts kernels as one solo dense part (see
// ckernels.go); ForceRowPath tables use the row-oriented reference,
// which the kernels match byte for byte — same group order, key values,
// aggregate results and float summation order.
func (t *Table) GroupBy(groupCols []string, aggs []AggSpec) (*Table, error) {
	gIdx, aCols, sch, err := groupPlan(t.schema, groupCols, aggs)
	if err != nil {
		return nil, err
	}
	if t.rowOnly {
		return t.groupByRows(gIdx, aCols, sch), nil
	}
	return groupByPartsPool(t.queryPool(), t.parts(gIdx, aCols), len(gIdx), aCols, sch), nil
}

// groupByRows is the row-oriented reference GroupBy behind ForceRowPath:
// the semantics oracle the parts kernels are pinned against by
// differential tests.
func (t *Table) groupByRows(gIdx []int, aCols []aggCol, sch Schema) *Table {
	// Hash aggregation. Groups live in one growing slice preserving
	// first-appearance order; their keys, key bytes, and aggregate states
	// are carved out of chunked arenas. Group lookup goes through an
	// open-addressed table of group indices keyed by a 64-bit hash of the
	// encoded key, disambiguated by comparing the arena-stored key bytes
	// — so a new group costs only amortized bump allocations (no
	// per-group map-key string), and the per-row hot loop allocates
	// nothing at all.
	type group struct {
		key      value.Tuple
		keyBytes []byte
		states   []aggState
		hash     uint64
	}
	nK, nA := len(gIdx), len(aCols)
	tabSize := 64
	tab := make([]int32, tabSize)
	for i := range tab {
		tab[i] = -1
	}
	mask := uint64(tabSize - 1)
	var groups []group
	var stateArena []aggState // groups keep slices into retired chunks
	var keyArena []value.V
	var byteArena []byte
	var keyBuf []byte
	for _, r := range t.rows {
		keyBuf = keyBuf[:0]
		for _, ci := range gIdx {
			keyBuf = r[ci].AppendKey(keyBuf)
		}
		h := maphash.Bytes(hashSeed, keyBuf)
		gi := int32(-1)
		slot := h & mask
		for tab[slot] >= 0 {
			j := tab[slot]
			if groups[j].hash == h && bytes.Equal(groups[j].keyBytes, keyBuf) {
				gi = j
				break
			}
			slot = (slot + 1) & mask
		}
		if gi < 0 {
			if len(stateArena)+nA > cap(stateArena) {
				stateArena = make([]aggState, 0, arenaChunk(nA))
			}
			states := stateArena[len(stateArena) : len(stateArena)+nA : len(stateArena)+nA]
			stateArena = stateArena[:len(stateArena)+nA]
			if len(keyArena)+nK > cap(keyArena) {
				keyArena = make([]value.V, 0, arenaChunk(nK))
			}
			key := keyArena[len(keyArena) : len(keyArena)+nK : len(keyArena)+nK]
			keyArena = keyArena[:len(keyArena)+nK]
			for i, ci := range gIdx {
				key[i] = r[ci]
			}
			if len(byteArena)+len(keyBuf) > cap(byteArena) {
				n := 4096
				if len(keyBuf) > n {
					n = len(keyBuf)
				}
				byteArena = make([]byte, 0, n)
			}
			kb := byteArena[len(byteArena) : len(byteArena)+len(keyBuf) : len(byteArena)+len(keyBuf)]
			byteArena = byteArena[:len(byteArena)+len(keyBuf)]
			copy(kb, keyBuf)
			gi = int32(len(groups))
			groups = append(groups, group{key: key, keyBytes: kb, states: states, hash: h})
			tab[slot] = gi
			// Keep the load factor under 1/2: rebuild the index from the
			// stored hashes when the group count reaches half the slots.
			if len(groups)*2 >= tabSize {
				tabSize *= 2
				mask = uint64(tabSize - 1)
				tab = make([]int32, tabSize)
				for i := range tab {
					tab[i] = -1
				}
				for j := range groups {
					s := groups[j].hash & mask
					for tab[s] >= 0 {
						s = (s + 1) & mask
					}
					tab[s] = int32(j)
				}
			}
		}
		st := groups[gi].states
		for i, ac := range aCols {
			var arg value.V
			if ac.idx >= 0 {
				arg = r[ac.idx]
			}
			st[i].add(arg, ac.spec.Func, ac.idx < 0)
		}
	}

	// Materialize all output rows into one slab; the capped subslices
	// keep a later append on any row from clobbering its neighbor.
	out := NewTable(sch)
	out.rowOnly = t.rowOnly
	out.rows = make([]value.Tuple, len(groups))
	width := len(sch)
	slab := make([]value.V, len(groups)*width)
	for gi := range groups {
		row := slab[gi*width : (gi+1)*width : (gi+1)*width]
		copy(row, groups[gi].key)
		for i, ac := range aCols {
			row[nK+i] = groups[gi].states[i].result(ac.spec.Func)
		}
		out.rows[gi] = row
	}
	return out
}

// arenaChunk sizes an arena chunk to hold many groups' worth of entries
// while never being smaller than one group's need.
func arenaChunk(n int) int {
	const target = 1024
	if n > target {
		return n
	}
	if n == 0 {
		return 0
	}
	return target - target%n // whole groups per chunk
}
