package mining

import (
	"sort"
	"time"

	"cape/internal/engine"
	"cape/internal/pattern"
)

// eachSplit is the (F, V) split enumeration of Algorithm 5, the one both
// ARPMine and the Maintainer run over a grouped table: it walks the
// sort-order cover of g, sorts a permutation of keys' rows by each order
// that covers an untested split (keeping the prefix it shares with the
// previous order sorted), and calls fn with every untested prefix split
// (F, V) of that order and the sorted permutation. F and V come in the
// order's attribute order; perm is valid only during the call. Building
// the sort codes and sorting accrue to tm.Query.
func eachSplit(keys *engine.Table, g []string, tm *pattern.Timers, fn func(f, v []string, perm []int32) error) error {
	t0 := time.Now()
	codes, err := engine.BuildSortCodes(keys, g)
	if err != nil {
		return err
	}
	perm := codes.NewPerm()
	tm.Query += time.Since(t0)

	tested := make(map[string]bool)
	var prev []string
	for _, s := range sortOrderCover(g) {
		// Does this sort order cover anything new?
		covers := false
		for k := 1; k < len(s); k++ {
			if !tested[pairKey(s[:k], s[k:])] {
				covers = true
				break
			}
		}
		if !covers {
			continue
		}
		t0 := time.Now()
		if err := codes.SortPerm(perm, s, sharedPrefix(prev, s)); err != nil {
			return err
		}
		tm.Query += time.Since(t0)
		prev = s

		for k := 1; k < len(s); k++ {
			pk := pairKey(s[:k], s[k:])
			if tested[pk] {
				continue
			}
			tested[pk] = true
			if err := fn(s[:k], s[k:], perm); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortOrderCover returns a minimal set of orderings of g such that every
// (F, V) split of g — F a non-empty proper subset — is a prefix split of
// at least one ordering. The old implementation enumerated all n!
// permutations and relied on the tested-pair map to skip redundant ones;
// the cover achieves the information-theoretic minimum of C(n, ⌊n/2⌋)
// orders via the symmetric chain decomposition of the subset lattice
// (de Bruijn–Tengbergen–Kruyswijk): each chain of nested subsets
// S₁ ⊂ S₂ ⊂ … becomes one sort order whose prefix sets include exactly
// those subsets, and every subset of g lies on exactly one chain.
//
// Orders are returned sorted lexicographically, which maximizes the
// shared prefix between consecutive orders — the prefix SortPerm keeps
// when re-sorting.
func sortOrderCover(g []string) [][]string {
	n := len(g)
	if n == 0 {
		return nil
	}

	// Build the symmetric chain decomposition over bitmask subsets of
	// {0, …, n−1}. Invariant after processing k elements: every subset of
	// the first k elements lies on exactly one chain, and each chain is a
	// run of nested subsets growing one element per step. Adding element
	// k, chain [S₁, …, Sₘ] spawns [S₁, …, Sₘ, Sₘ∪{k}] and (when m > 1)
	// [S₁∪{k}, …, Sₘ₋₁∪{k}].
	chains := [][]uint{{0, 1}}
	for k := 1; k < n; k++ {
		bit := uint(1) << uint(k)
		next := make([][]uint, 0, 2*len(chains))
		for _, c := range chains {
			ext := make([]uint, len(c)+1)
			copy(ext, c)
			ext[len(c)] = c[len(c)-1] | bit
			next = append(next, ext)
			if len(c) > 1 {
				lift := make([]uint, len(c)-1)
				for i, m := range c[:len(c)-1] {
					lift[i] = m | bit
				}
				next = append(next, lift)
			}
		}
		chains = next
	}

	// Each chain becomes one attribute order: the smallest subset's
	// attributes first (in g order), then the element added at each chain
	// step, then whatever the largest subset is missing. Prefix lengths
	// |S₁| … |Sₘ| of the order then realize exactly the chain's subsets.
	orders := make([][]string, 0, len(chains))
	full := uint(1)<<uint(n) - 1
	for _, c := range chains {
		order := make([]string, 0, n)
		appendMask := func(mask uint) {
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					order = append(order, g[i])
				}
			}
		}
		appendMask(c[0])
		for i := 1; i < len(c); i++ {
			appendMask(c[i] &^ c[i-1])
		}
		appendMask(full &^ c[len(c)-1])
		orders = append(orders, order)
	}

	sort.Slice(orders, func(x, y int) bool {
		a, b := orders[x], orders[y]
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	})
	return orders
}

// sharedPrefix is the length of the longest common prefix of a and b.
func sharedPrefix(a, b []string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
