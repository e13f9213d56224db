package sql

import (
	"slices"
	"strings"
	"testing"

	"cape/internal/engine"
)

func TestAggregateQueryExtraction(t *testing.T) {
	groupBy, agg, err := Parse("SELECT author, year, venue, count(*) AS pubcnt FROM pub GROUP BY author, year, venue")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(groupBy, []string{"author", "year", "venue"}) {
		t.Errorf("groupBy = %v", groupBy)
	}
	if agg.Func != engine.Count || !agg.IsStar() {
		t.Errorf("agg = %v", agg)
	}
}

func TestAggregateQuerySum(t *testing.T) {
	_, agg, err := Parse("SELECT region, sum(amount) FROM sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Func != engine.Sum || agg.Arg != "amount" {
		t.Errorf("agg = %v", agg)
	}
}

// rejectedQuestionQueries are well-formed SQL that is not a question
// query; clause, when set, is the refused clause the error must name.
var rejectedQuestionQueries = []struct{ query, clause string }{
	{"SELECT author FROM pub GROUP BY author", ""},                                   // no aggregate
	{"SELECT author, count(*), sum(x) FROM pub GROUP BY author", ""},                 // two aggregates
	{"SELECT count(*) FROM pub", "GROUP BY"},                                         // no group-by
	{"SELECT author, count(*) FROM pub WHERE year = 2007 GROUP BY author", "WHERE"},  // WHERE
	{"SELECT author, count(*) FROM pub GROUP BY author ORDER BY author", "ORDER BY"}, // ORDER BY
	{"SELECT author, count(*) FROM pub GROUP BY author LIMIT 5", "LIMIT"},            // LIMIT
	{"SELECT DISTINCT author, count(*) FROM pub GROUP BY author", "DISTINCT"},        // DISTINCT
	{"SELECT *, count(*) FROM pub GROUP BY author", "*"},                             // star
	{"SELECT count(*) FROM pub GROUP BY author", ""},                                 // group col missing from SELECT
	// The predicate after WHERE is outside the dialect, but the clause
	// is named before the parser reaches it.
	{"SELECT venue, count(*) FROM pub WHERE author = 'AX' GROUP BY venue", "WHERE"},
}

const havingQuery = "SELECT author, count(*) AS n FROM pub GROUP BY author HAVING n > 2"

func TestAggregateQueryRejections(t *testing.T) {
	for _, c := range rejectedQuestionQueries {
		_, _, err := Parse(c.query)
		switch {
		case err == nil:
			t.Errorf("accepted invalid question query %q", c.query)
		case !strings.Contains(err.Error(), c.clause):
			t.Errorf("%q: error %q does not name %s", c.query, err, c.clause)
		}
	}
}

func TestAggregateQueryRejectsHaving(t *testing.T) {
	_, _, err := Parse(havingQuery)
	if err == nil || !strings.Contains(err.Error(), "HAVING") {
		t.Errorf("HAVING should be rejected by name in a user question query, got %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM pub",
		"SELECT a, count(*) FROM",
		"SELECT a, count(*) pub GROUP BY a",
		"SELECT a, count(*) FROM pub GROUP a",
		"SELECT a, count(*) FROM pub GROUP BY",
		"SELECT a, count(*) FROM pub GROUP BY a,",
		"SELECT a, median(x) FROM pub GROUP BY a",
		"SELECT a, sum(*) FROM pub GROUP BY a",
		"SELECT a, count(* FROM pub GROUP BY a",
		"SELECT a, count() FROM pub GROUP BY a",
		"SELECT a, count(*) FROM pub GROUP BY a extra",
		"SELECT a, count(*) FROM pub, other GROUP BY a",
		"SELECT a, count(*) FROM pub GROUP BY a; SELECT",
		"SELECT a AS FROM pub GROUP BY a",
		"SELECT a, count(*) FROM pub GROUP BY a = 1",
	}
	for _, q := range bad {
		if _, _, err := Parse(q); err == nil {
			t.Errorf("accepted bad query %q", q)
		}
	}
}

func TestPaperQuery(t *testing.T) {
	// The paper's Q0, verbatim modulo table name.
	groupBy, agg, err := Parse(`SELECT author, year, venue, count(*) AS pubcnt
FROM pub
GROUP BY author, year, venue`)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(groupBy, []string{"author", "year", "venue"}) || agg != (engine.AggSpec{Func: engine.Count}) {
		t.Errorf("Parse = %v, %v", groupBy, agg)
	}
}

func TestSelectItemOrderIndependentOfGroupBy(t *testing.T) {
	groupBy, agg, err := Parse("SELECT count(*), venue AS v, author FROM pub GROUP BY author, venue")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(groupBy, []string{"author", "venue"}) || agg.Func != engine.Count {
		t.Errorf("Parse = %v, %v", groupBy, agg)
	}
}

func TestTrailingSemicolonAndKeywordCase(t *testing.T) {
	// Keywords and aggregate names are case-insensitive.
	groupBy, agg, err := Parse("select author, COUNT(*) from pub group by author;")
	if err != nil || !slices.Equal(groupBy, []string{"author"}) || agg.Func != engine.Count {
		t.Errorf("Parse = %v, %v, %v", groupBy, agg, err)
	}
	// Column identifiers are case-sensitive: a group-by column must be
	// selected under the same spelling.
	if _, _, err := Parse("select Author, count(*) from pub group by author"); err == nil {
		t.Error("wrong-case column should error")
	}
}
