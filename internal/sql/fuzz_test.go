package sql

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParse asserts that Parse never panics, and that a query it
// accepts has a non-empty group-by, exactly one aggregate call in its
// SELECT list and every group-by column among that list's columns —
// counted from the token stream, not from Parse's own bookkeeping — and
// that the canonical query built from its answer parses to the same
// answer.
func FuzzParse(f *testing.F) {
	for _, c := range rejectedQuestionQueries {
		f.Add(c.query)
	}
	for _, s := range []string{
		havingQuery,
		"SELECT author, year, venue, count(*) AS pubcnt FROM pub GROUP BY author, year, venue",
		"select region, SUM(amount) from sales group by region;",
		"SELECT count(*), b AS x, a FROM t GROUP BY a, b",
		"SELECT a, count(*) FROM t GROUP BY a ; ;",
		"SELECT (((((((((( FROM t",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, query string) {
		if len(query) > 4096 {
			return
		}
		groupBy, agg, err := Parse(query)
		if err != nil {
			return
		}
		if len(groupBy) == 0 {
			t.Fatalf("%q: accepted with an empty group-by", query)
		}
		cols, aggs := selectList(lex(query))
		if aggs != 1 {
			t.Fatalf("%q: accepted with %d aggregates", query, aggs)
		}
		for _, g := range groupBy {
			if !slices.Contains(cols, g) {
				t.Fatalf("%q: group-by column %q is not selected", query, g)
			}
		}
		canonical := "SELECT " + strings.Join(groupBy, ", ") + ", " + agg.String() +
			" FROM t GROUP BY " + strings.Join(groupBy, ", ")
		g2, agg2, err := Parse(canonical)
		if err != nil || !slices.Equal(g2, groupBy) || agg2.Func != agg.Func || agg2.IsStar() != agg.IsStar() ||
			(!agg.IsStar() && agg2.Arg != agg.Arg) {
			t.Fatalf("%q: canonical form %q parses to %v, %v, %v", query, canonical, g2, agg2, err)
		}
	})
}

// selectList reads the items between SELECT and FROM: the columns (an
// identifier not followed by '(') and the number of aggregate calls (an
// identifier followed by '('), each item ending at a comma.
func selectList(toks []token) (cols []string, aggs int) {
	start := true
	for i := 1; i+1 < len(toks) && toks[i].text != "FROM"; i++ {
		switch {
		case start && toks[i].kind == tokIdent && toks[i+1].text == "(":
			aggs++
		case start && toks[i].kind == tokIdent:
			cols = append(cols, toks[i].text)
		}
		start = toks[i].text == ","
	}
	return cols, aggs
}

// FuzzLex asserts the lexer terminates without panicking on arbitrary
// input, that token positions never decrease, and that the stream ends
// with exactly one EOF.
func FuzzLex(f *testing.F) {
	for _, s := range []string{"", "'", "a'b", "<=>=!=", "1.2.3e++4", "--5", "\x00\xff", "SELECT é_1, count(*)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 4096 {
			return
		}
		toks := lex(input)
		prev := -1
		for i, tok := range toks {
			if tok.pos < prev || tok.pos > len(input) {
				t.Errorf("token %d at offset %d after %d (input length %d)", i, tok.pos, prev, len(input))
			}
			prev = tok.pos
			if (tok.kind == tokEOF) != (i == len(toks)-1) {
				t.Fatalf("EOF at token %d of %d", i, len(toks))
			}
		}
	})
}
