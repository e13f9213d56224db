package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cape/internal/value"
)

// randomDistinctTable builds a table whose rows are distinct on the
// full column set (like a group-by output), mixing string and numeric
// columns, NaN among the floats. Distinctness is what lets the non-stable SortPerm agree with
// the stable SortBy exactly.
func randomDistinctTable(rng *rand.Rand, rows int) (*Table, []string) {
	cols := []string{"a", "b", "c"}
	tab := NewTable(Schema{
		{Name: "a", Kind: value.String},
		{Name: "b", Kind: value.Int},
		{Name: "c", Kind: value.Float},
	})
	seen := map[string]bool{}
	for len(seen) < rows {
		row := value.Tuple{
			value.NewString(string(rune('p' + rng.Intn(6)))),
			value.NewInt(int64(rng.Intn(8))),
			value.NewFloat(float64(rng.Intn(10)) / 2),
		}
		if rng.Intn(10) == 0 {
			row[2] = value.NewFloat(math.NaN())
		}
		k := row.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		tab.MustAppend(row)
	}
	return tab, cols
}

// sortedClone returns a copy of tab stably sorted by cols, leaving tab
// as it is.
func sortedClone(t *testing.T, tab *Table, cols []string) *Table {
	t.Helper()
	out := tab.Clone()
	if err := out.SortBy(cols); err != nil {
		t.Fatal(err)
	}
	return out
}

// applyPerm materializes the row order a permutation denotes.
func applyPerm(t *Table, perm []int32) []value.Tuple {
	out := make([]value.Tuple, len(perm))
	for i, ri := range perm {
		out[i] = t.Rows()[ri]
	}
	return out
}

// TestSortPermMatchesTableSorted: for random tables and random sort
// orders, sorting the permutation must order rows exactly like a sorted
// copy of the table (sortedClone).
func TestSortPermMatchesTableSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		tab, cols := randomDistinctTable(rng, 40+rng.Intn(100))
		codes, err := BuildSortCodes(tab, cols)
		if err != nil {
			t.Fatal(err)
		}
		perm := codes.NewPerm()
		// Random order over a random subset-permutation of the columns.
		order := append([]string(nil), cols...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		order = order[:rng.Intn(len(order))+1]

		if err := codes.SortPerm(perm, order, 0); err != nil {
			t.Fatal(err)
		}
		want := sortedClone(t, tab, order)
		got := applyPerm(tab, perm)
		for i := range got {
			// Rows may tie on a proper column subset; compare the sort
			// keys, which must agree position by position.
			for _, c := range order {
				ci := tab.Schema().Index(c)
				if value.Compare(got[i][ci], want.Rows()[i][ci]) != 0 {
					t.Fatalf("trial %d: row %d differs on %q after sort by %v", trial, i, c, order)
				}
			}
		}
	}
}

// TestSortPermPrefixReuse: re-sorting with a declared shared prefix must
// produce exactly the same permutation as a full sort by the new order.
func TestSortPermPrefixReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		tab, cols := randomDistinctTable(rng, 40+rng.Intn(100))
		codes, err := BuildSortCodes(tab, cols)
		if err != nil {
			t.Fatal(err)
		}

		first := append([]string(nil), cols...)
		rng.Shuffle(len(first), func(i, j int) { first[i], first[j] = first[j], first[i] })
		// Second order shares a random-length prefix with the first.
		k := rng.Intn(len(cols))
		second := append([]string(nil), first[:k]...)
		rest := append([]string(nil), first[k:]...)
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		second = append(second, rest...)

		reused := codes.NewPerm()
		if err := codes.SortPerm(reused, first, 0); err != nil {
			t.Fatal(err)
		}
		if err := codes.SortPerm(reused, second, k); err != nil {
			t.Fatal(err)
		}

		fresh := codes.NewPerm()
		if err := codes.SortPerm(fresh, second, 0); err != nil {
			t.Fatal(err)
		}
		for i := range fresh {
			if reused[i] != fresh[i] {
				t.Fatalf("trial %d: prefix-reused sort differs from full sort at %d (orders %v then %v, prefix %d)",
					trial, i, first, second, k)
			}
		}
	}
}

// TestSortPermIdenticalOrderNoop: keepPrefix covering the whole order
// leaves the permutation untouched.
func TestSortPermIdenticalOrderNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tab, cols := randomDistinctTable(rng, 60)
	codes, err := BuildSortCodes(tab, cols)
	if err != nil {
		t.Fatal(err)
	}
	perm := codes.NewPerm()
	if err := codes.SortPerm(perm, cols, 0); err != nil {
		t.Fatal(err)
	}
	before := append([]int32(nil), perm...)
	if err := codes.SortPerm(perm, cols, len(cols)); err != nil {
		t.Fatal(err)
	}
	for i := range perm {
		if perm[i] != before[i] {
			t.Fatal("no-op re-sort changed the permutation")
		}
	}
}

// TestSortPermUnknownColumn: sorting by an un-encoded column errors.
func TestSortPermUnknownColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tab, cols := randomDistinctTable(rng, 10)
	codes, err := BuildSortCodes(tab, cols[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := codes.SortPerm(codes.NewPerm(), cols, 0); err == nil {
		t.Fatal("sort by un-encoded column should error")
	}
}

// TestBuildSortCodesOrdersLikeCompare: codes must rank values exactly
// like value.Compare, including on columns mixing ints, floats, strings
// and nulls, NaN and integers past 2^53.
func TestBuildSortCodesOrdersLikeCompare(t *testing.T) {
	tab := NewTable(Schema{{Name: "m", Kind: value.Null}})
	vals := []value.V{
		value.NewInt(3), value.NewFloat(3), value.NewFloat(2.5),
		value.NewString("x"), value.NewNull(), value.NewInt(-1),
		value.NewString("a"), value.NewNull(), value.NewFloat(3.5),
		value.NewFloat(math.NaN()), value.NewInt(1 << 53), value.NewInt(1<<53 + 1),
		value.NewFloat(1 << 53), value.NewFloat(math.Copysign(0, -1)), value.NewInt(0),
		value.NewFloat(math.Inf(1)), value.NewFloat(math.Ldexp(1, 63)), value.NewInt(math.MaxInt64),
	}
	for _, v := range vals {
		tab.MustAppend(value.Tuple{v})
	}
	codes, err := BuildSortCodes(tab, []string{"m"})
	if err != nil {
		t.Fatal(err)
	}
	c := codes.codes["m"]
	for i, a := range vals {
		for j, b := range vals {
			cmp := value.Compare(a, b)
			switch {
			case cmp < 0 && !(c[i] < c[j]):
				t.Errorf("%v < %v but codes %d ≥ %d", a, b, c[i], c[j])
			case cmp == 0 && c[i] != c[j]:
				t.Errorf("%v = %v but codes %d ≠ %d", a, b, c[i], c[j])
			case cmp > 0 && !(c[i] > c[j]):
				t.Errorf("%v > %v but codes %d ≤ %d", a, b, c[i], c[j])
			}
		}
	}
}

// TestSortPermLongPrefixRuns: a prefix re-sort whose prefix has two
// ranks leaves runs of over 10K rows, which SortPerm counting-sorts; the
// result must equal a full sort's.
func TestSortPermLongPrefixRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const rows = 25000
	tab := NewTable(Schema{{Name: "p", Kind: value.Int}, {Name: "a", Kind: value.Int}, {Name: "b", Kind: value.String}})
	for _, combo := range rng.Perm(2 * 200 * 200)[:rows] {
		err := tab.Append(value.Tuple{value.NewInt(int64(combo % 2)), value.NewInt(int64(combo / 2 % 200)),
			value.NewString(fmt.Sprintf("b%03d", combo/400))})
		if err != nil {
			t.Fatal(err)
		}
	}
	codes, err := BuildSortCodes(tab, []string{"p", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	first, second := []string{"p", "b", "a"}, []string{"p", "a", "b"}
	reused := codes.NewPerm()
	if err := codes.SortPerm(reused, first, 0); err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, r := range codes.codes["p"] {
		zeros += int(1 - r)
	}
	if zeros < 10_000 || rows-zeros < 10_000 {
		t.Fatalf("prefix runs of %d and %d rows, want both at least 10K", zeros, rows-zeros)
	}
	if err := codes.SortPerm(reused, second, 1); err != nil {
		t.Fatal(err)
	}
	fresh := codes.NewPerm()
	if err := codes.SortPerm(fresh, second, 0); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(reused, fresh) {
		t.Fatal("prefix re-sort of long runs differs from a full sort")
	}
}
