package engine

import "fmt"

// SortCodes are dense per-column sort keys for a table: each encoded
// column is dictionary-encoded once into int32 ranks that order exactly
// like value.Compare (equal values share a code, hence a rank), so
// multi-key sorts compare machine integers instead of boxed values, and
// a sort of the table becomes a sort of a row-index permutation. ARP mining builds one
// SortCodes per grouped result and reuses it across every sort order it
// explores.
type SortCodes struct {
	numRows int
	codes   map[string][]int32
	ranks   map[string]int32 // rank count per column (codes are 0..ranks-1)
	scratch []int32          // counting-sort output buffer
	counts  []int32          // counting-sort histogram
}

// BuildSortCodes dictionary-encodes the given columns of t: each
// column's ranks come from the column's dictionary — sorting d
// distinct values instead of n rows, and sharing the dictionary with
// every other operator on the table — after which every SortPerm call
// is pure integer work.
func BuildSortCodes(t *Table, cols []string) (*SortCodes, error) {
	idx, err := t.schema.Indices(cols)
	if err != nil {
		return nil, err
	}
	sc := &SortCodes{
		numRows: t.NumRows(),
		codes:   make(map[string][]int32, len(cols)),
		ranks:   make(map[string]int32, len(cols)),
	}
	for k, col := range cols {
		if _, dup := sc.codes[col]; !dup {
			sc.codes[col], sc.ranks[col] = t.cols[idx[k]].RankCodes()
		}
	}
	return sc, nil
}

// NewPerm returns the identity permutation over the table's rows, the
// starting point for SortPerm.
func (sc *SortCodes) NewPerm() []int32 {
	perm := make([]int32, sc.numRows)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// SortPerm sorts perm — a permutation of row indices — lexicographically
// by the encoded columns in order. keepPrefix > 0 declares that perm is
// already sorted by order[:keepPrefix] (because the previous sort order
// shared that prefix); only runs of rows equal on the prefix are then
// re-sorted, by the remaining columns. The sort need not be stable: ARP
// mining sorts grouped results whose rows are distinct on the full
// column set, so no two rows tie.
//
// Because the codes are dense ranks, a full sort is an LSD counting sort
// — one stable O(n + ranks) pass per column, minor to major. A prefix
// re-sort insertion-sorts each short run, and counting-sorts a run
// longer than sortRunCutoff the same way as a full sort: a
// low-cardinality prefix leaves runs of thousands of rows, where the
// insertion sort's quadratic cost would dominate mining.
func (sc *SortCodes) SortPerm(perm []int32, order []string, keepPrefix int) error {
	cols := make([][]int32, len(order))
	nRanks := make([]int32, len(order))
	for i, name := range order {
		c := sc.codes[name]
		if c == nil {
			return fmt.Errorf("engine: column %q has no sort codes", name)
		}
		cols[i] = c
		nRanks[i] = sc.ranks[name]
	}
	if keepPrefix < 0 {
		keepPrefix = 0
	}
	if keepPrefix >= len(cols) {
		return nil // identical order: already sorted
	}
	if keepPrefix == 0 {
		for i := len(cols) - 1; i >= 0; i-- {
			sc.countingSort(perm, cols[i], nRanks[i])
		}
		return nil
	}
	rest := cols[keepPrefix:]
	prefix := cols[:keepPrefix]
	for lo := 0; lo < len(perm); {
		hi := lo + 1
		for hi < len(perm) && equalOn(prefix, perm[lo], perm[hi]) {
			hi++
		}
		switch {
		case hi-lo > sortRunCutoff:
			for i := len(rest) - 1; i >= 0; i-- {
				sc.countingSort(perm[lo:hi], rest[i], nRanks[keepPrefix+i])
			}
		case hi-lo > 1:
			insertionSort(perm[lo:hi], rest)
		}
		lo = hi
	}
	return nil
}

// sortRunCutoff is the longest prefix-equal run SortPerm re-sorts by
// insertion; longer runs take the counting sort, whose O(run + ranks)
// per column beats the insertion sort's O(run²) from a few hundred rows
// on.
const sortRunCutoff = 256

// countingSort stably reorders perm by codes (a dense-rank column with
// ranks in [0, nRanks)), reusing the receiver's histogram and output
// scratch.
func (sc *SortCodes) countingSort(perm []int32, codes []int32, nRanks int32) {
	if cap(sc.counts) < int(nRanks)+1 {
		sc.counts = make([]int32, nRanks+1)
	}
	counts := sc.counts[:nRanks+1]
	for i := range counts {
		counts[i] = 0
	}
	for _, ri := range perm {
		counts[codes[ri]+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	if cap(sc.scratch) < len(perm) {
		sc.scratch = make([]int32, len(perm))
	}
	out := sc.scratch[:len(perm)]
	for _, ri := range perm {
		out[counts[codes[ri]]] = ri
		counts[codes[ri]]++
	}
	copy(perm, out)
}

// insertionSort orders a short run of row indices by the code columns in
// cols, avoiding sort.Slice's closure overhead on the many small runs a
// prefix re-sort produces.
func insertionSort(run []int32, cols [][]int32) {
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && lessOn(cols, run[j], run[j-1]); j-- {
			run[j], run[j-1] = run[j-1], run[j]
		}
	}
}

// lessOn compares rows a and b lexicographically by the code columns.
func lessOn(cols [][]int32, a, b int32) bool {
	for _, c := range cols {
		if ca, cb := c[a], c[b]; ca != cb {
			return ca < cb
		}
	}
	return false
}

// equalOn reports whether rows a and b agree on every code column.
func equalOn(cols [][]int32, a, b int32) bool {
	for _, c := range cols {
		if c[a] != c[b] {
			return false
		}
	}
	return true
}
