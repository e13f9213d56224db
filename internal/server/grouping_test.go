package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"cape/internal/engine"
)

// groupingShapes are the question shapes of the grouping tests: the
// pattern set's full grouping in two column orders and a pair. Each is
// one question grouping; every pattern grouping they reach is one of the
// Maintainer's.
var groupingShapes = [][]string{{"author", "venue", "year"}, {"year", "venue", "author"}, {"venue", "year"}}

// shapeQuestions picks n questions of every groupingShapes shape from
// tab's groups, starting at group from, alternating directions.
func shapeQuestions(t *testing.T, tab *engine.Table, from, n int) []QuestionSpec {
	t.Helper()
	var out []QuestionSpec
	for _, g := range groupingShapes {
		grouped, err := tab.GroupBy(g, []engine.AggSpec{{Func: engine.Count}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			row := grouped.Row((from + i*7) % grouped.NumRows())
			tuple := make([]string, len(g))
			for j := range g {
				tuple[j] = row[j].String()
			}
			out = append(out, QuestionSpec{GroupBy: g, Tuple: tuple, Dir: []string{"low", "high"}[i%2]})
		}
	}
	return out
}

// explainAll asks every question through /v1/explain and returns the
// bodies and the relevant patterns the answers counted.
func explainAll(t *testing.T, url, ps string, qs []QuestionSpec) (bodies [][]byte, relevant int) {
	t.Helper()
	for _, q := range qs {
		status, body := doRaw(t, "POST", url+"/v1/explain", ExplainRequest{
			Patterns: ps, GroupBy: q.GroupBy, Tuple: q.Tuple, Dir: q.Dir, K: 5, Parallelism: 1,
		})
		if status != http.StatusOK {
			t.Fatalf("explain %v %v: %d %s", q.GroupBy, q.Tuple, status, body)
		}
		var out struct {
			Stats struct{ RelevantPatterns int } `json:"stats"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
		relevant += out.Stats.RelevantPatterns
	}
	return bodies, relevant
}

// TestServerExplainerReadsMaintainer: a mined set's Explainer reads
// every pattern grouping from the set's Maintainer, so after /v1/mine,
// explains over several shapes and an append that creates groups, it
// retains exactly the question groupings asked — one per shape — and no
// pattern grouping: it computed none, and an append has none of its own
// to fold. A set restored from a pattern store has no Maintainer until
// its first append: it caches pattern groupings until then, and none
// once the append builds the Maintainer.
func TestServerExplainerReadsMaintainer(t *testing.T) {
	tab := diffTable(900)
	initial := engine.NewTable(tab.Schema())
	if err := initial.AppendRows(tab.Rows()[:700]); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := initial.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t)
	loadCSV(t, ts.URL, csv.Bytes())
	ps := mineDiffSet(t, ts.URL)
	entry, _ := s.PatternSetEntry(ps)

	if _, relevant := explainAll(t, ts.URL, ps, shapeQuestions(t, initial, 0, 4)); relevant == 0 {
		t.Fatal("no question had a relevant pattern: no pattern grouping was read")
	}
	if n := cachedGroupingsFor(t, ts.URL, ps); n != len(groupingShapes) {
		t.Errorf("after /v1/mine: %d cached groupings, want the %d question groupings", n, len(groupingShapes))
	}

	appendRows := func(url string) {
		t.Helper()
		status, body := doRaw(t, "POST", url+"/v1/append", AppendRequest{Table: "pub", Rows: rowsToJSON(t, tab, 700, 900)})
		if status != http.StatusOK {
			t.Fatalf("append: %d %s", status, body)
		}
	}
	appendRows(ts.URL)
	if _, relevant := explainAll(t, ts.URL, ps, shapeQuestions(t, tab, 3, 4)); relevant == 0 {
		t.Fatal("no question had a relevant pattern after the append")
	}
	if n := cachedGroupingsFor(t, ts.URL, ps); n != len(groupingShapes) {
		t.Errorf("after /v1/append: %d cached groupings, want the %d question groupings", n, len(groupingShapes))
	}

	// The restored set, over the table as the mine saw it.
	s2, ts2 := newTestServer(t)
	loadCSV(t, ts2.URL, csv.Bytes())
	restored, _ := s2.AddPatternSetEntry(entry)
	explainAll(t, ts2.URL, restored, shapeQuestions(t, initial, 0, 4))
	if n := cachedGroupingsFor(t, ts2.URL, restored); n <= len(groupingShapes) {
		t.Errorf("restored set before its first append: %d cached groupings, want its pattern groupings on top of the %d question groupings", n, len(groupingShapes))
	}
	appendRows(ts2.URL)
	explainAll(t, ts2.URL, restored, shapeQuestions(t, tab, 3, 4))
	if n := cachedGroupingsFor(t, ts2.URL, restored); n != len(groupingShapes) {
		t.Errorf("restored set after its first append: %d cached groupings, want the %d question groupings", n, len(groupingShapes))
	}
}

// TestServerConcurrentFirstPublication: after an append, concurrent
// /v1/explain calls read the Maintainer's groupings, each published
// lazily by whichever call asks first. Run under -race, they must read
// clean, and each answer must equal the one a second server gives the
// same question asked alone.
func TestServerConcurrentFirstPublication(t *testing.T) {
	tab := diffTable(900)
	initial := engine.NewTable(tab.Schema())
	if err := initial.AppendRows(tab.Rows()[:800]); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := initial.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	urls := make([]string, 2)
	sets := make([]string, 2)
	for i := range urls {
		_, ts := newTestServer(t)
		loadCSV(t, ts.URL, csv.Bytes())
		urls[i], sets[i] = ts.URL, mineDiffSet(t, ts.URL)
		status, body := doRaw(t, "POST", ts.URL+"/v1/append", AppendRequest{Table: "pub", Rows: rowsToJSON(t, tab, 800, 900)})
		if status != http.StatusOK {
			t.Fatalf("append: %d %s", status, body)
		}
	}
	qs := shapeQuestions(t, tab, 1, 4)
	got := make([][]byte, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := doRaw(t, "POST", urls[0]+"/v1/explain", ExplainRequest{
				Patterns: sets[0], GroupBy: q.GroupBy, Tuple: q.Tuple, Dir: q.Dir, K: 5, Parallelism: 1,
			})
			if status != http.StatusOK {
				t.Errorf("explain %v: %d %s", q.Tuple, status, body)
			}
			got[i] = body
		}()
	}
	wg.Wait()
	want, _ := explainAll(t, urls[1], sets[1], qs)
	for i := range qs {
		if w := bytes.ReplaceAll(want[i], []byte(sets[1]), []byte(sets[0])); !bytes.Equal(got[i], w) {
			t.Errorf("question %v concurrently:\n%s\nalone:\n%s", qs[i].Tuple, got[i], w)
		}
	}
}
