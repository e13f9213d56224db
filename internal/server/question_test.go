package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"cape/internal/engine"
	"cape/internal/explain"
)

// cachedGroupingsFor reads one pattern set's cachedGroupings from GET /v1.
func cachedGroupingsFor(t *testing.T, url, psID string) int {
	t.Helper()
	resp, out := doJSON(t, "GET", url+"/v1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint: %d", resp.StatusCode)
	}
	for _, raw := range out["patternSets"].([]interface{}) {
		ps := raw.(map[string]interface{})
		if ps["id"] == psID {
			n, _ := ps["cachedGroupings"].(float64)
			return int(n)
		}
	}
	t.Fatalf("pattern set %s not in status output", psID)
	return 0
}

// TestServerQuestionsReadRetainedGroupings: once a pattern set's
// Explainer holds every grouping its questions can reach, new questions
// through /v1/explain and /v1/explain/batch — both read their question
// query from that Explainer — add no grouping, and /v1/status reports
// the count next to the index stats. Every answer equals a fresh
// server's byte for byte. A question over a new shape adds exactly its
// own grouping.
func TestServerQuestionsReadRetainedGroupings(t *testing.T) {
	tab := diffTable(600)
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	freshServer := func() (*Server, string, string) {
		s, ts := newTestServer(t)
		loadCSV(t, ts.URL, csv.Bytes())
		return s, ts.URL, mineDiffSet(t, ts.URL)
	}
	s, url, ps := freshServer()
	s.mu.RLock()
	set := s.patterns[ps]
	s.mu.RUnlock()
	served, _ := s.Table("pub")
	ex := s.explainerFor(set, served)

	// The question shapes: the pattern set's full grouping and a column
	// order no pattern enumerates. The warm-up answers every other group
	// with a k that prunes nothing, so every grouping a question of
	// these shapes can read is cached.
	shapes := [][]string{{"author", "venue", "year"}, {"year", "venue", "author"}}
	count := engine.AggSpec{Func: engine.Count}
	var fresh []QuestionSpec
	for _, g := range shapes {
		grouped, err := tab.GroupBy(g, []engine.AggSpec{count})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < grouped.NumRows(); i++ {
			row := grouped.Row(i)
			if i%2 == 1 {
				tuple := make([]string, len(g))
				for j := range g {
					tuple[j] = row[j].String()
				}
				fresh = append(fresh, QuestionSpec{GroupBy: g, Tuple: tuple, Dir: "low"})
			}
			for _, dir := range []explain.Direction{explain.Low, explain.High} {
				q, err := ex.Question(g, count, row[:len(g)], dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := ex.ExplainOpts(q, explain.Options{K: 1 << 30, Parallelism: 1}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	warm := cachedGroupingsFor(t, url, ps)
	if warm == 0 {
		t.Fatal("/v1/status reports no cached grouping after the warm-up")
	}

	half := len(fresh) / 2
	if half < 4 || fresh[half].GroupBy[0] != "year" {
		t.Fatalf("only %d fresh questions", len(fresh))
	}
	single, batch := fresh[:4], fresh[half:half+4]
	explainBody := func(url, ps string, spec QuestionSpec) []byte {
		t.Helper()
		status, body := doRaw(t, "POST", url+"/v1/explain", ExplainRequest{
			Patterns: ps, GroupBy: spec.GroupBy, Tuple: spec.Tuple, Dir: spec.Dir, K: 5, Parallelism: 1,
		})
		if status != http.StatusOK {
			t.Fatalf("explain %v: %d %s", spec.Tuple, status, body)
		}
		return body
	}
	batchBody := func(url, ps string) []byte {
		t.Helper()
		status, body := doRaw(t, "POST", url+"/v1/explain/batch", ExplainBatchRequest{
			Patterns: ps, Questions: batch, K: 5, Parallelism: 1,
		})
		if status != http.StatusOK {
			t.Fatalf("batch: %d %s", status, body)
		}
		return body
	}
	var got [][]byte
	for _, spec := range single {
		got = append(got, explainBody(url, ps, spec))
	}
	gotBatch := batchBody(url, ps)
	if n := cachedGroupingsFor(t, url, ps); n != warm {
		t.Errorf("%d new questions grew the cached groupings from %d to %d", len(single)+len(batch), warm, n)
	}
	for i, spec := range single {
		_, freshURL, freshPS := freshServer()
		want := bytes.ReplaceAll(explainBody(freshURL, freshPS, spec), []byte(freshPS), []byte(ps))
		if !bytes.Equal(got[i], want) {
			t.Errorf("explain %v differs from a fresh server's:\n got %s\nwant %s", spec.Tuple, got[i], want)
		}
	}
	_, freshURL, freshPS := freshServer()
	if want := batchBody(freshURL, freshPS); !bytes.Equal(gotBatch, want) {
		t.Errorf("batch differs from a fresh server's:\n got %s\nwant %s", gotBatch, want)
	}

	// A shape no pattern enumerates (patterns group by two attributes at
	// least) is one more retained grouping, which the batch then reads.
	venue := QuestionSpec{GroupBy: []string{"venue"}, Tuple: []string{tab.Row(0)[tab.Schema().Index("venue")].String()}, Dir: "high"}
	explainBody(url, ps, venue)
	if n := cachedGroupingsFor(t, url, ps); n != warm+1 {
		t.Errorf("a question over a new shape left %d cached groupings, want %d", n, warm+1)
	}
	status, body := doRaw(t, "POST", url+"/v1/explain/batch", ExplainBatchRequest{
		Patterns: ps, Questions: []QuestionSpec{{GroupBy: venue.GroupBy, Tuple: venue.Tuple, Dir: "low"}}, K: 5, Parallelism: 1,
	})
	if status != http.StatusOK || cachedGroupingsFor(t, url, ps) != warm+1 {
		t.Errorf("batch over the same shape: %d %s, %d cached groupings, want %d", status, body, cachedGroupingsFor(t, url, ps), warm+1)
	}
}

// TestExplainLimits: k above maxExplainK is refused by name, and
// parallelism is clamped to GOMAXPROCS — checked on the width the clamp
// computes, never by starting a pool that wide.
func TestExplainLimits(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{0, 0}, {1, 1}, {-3, -3}, {procs, procs}, {procs + 1, procs}, {1 << 40, procs},
	} {
		got := tc.in
		if !explainLimits(httptest.NewRecorder(), 5, &got) || got != tc.want {
			t.Errorf("parallelism %d: width %d, want %d", tc.in, got, tc.want)
		}
	}
	p := 1
	if !explainLimits(httptest.NewRecorder(), maxExplainK, &p) {
		t.Error("k at the limit refused")
	}
	limit := fmt.Sprintf("limit of %d", maxExplainK)
	rec := httptest.NewRecorder()
	if explainLimits(rec, maxExplainK+1, &p) || rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), limit) {
		t.Errorf("k past the limit: %d %s, want a 400 naming the %s", rec.Code, rec.Body, limit)
	}

	_, ts := newTestServer(t)
	loadRunningExample(t, ts)
	ps := mineExample(t, ts)
	shard := httptest.NewServer(New())
	t.Cleanup(shard.Close)
	coord, err := NewCoordinator(CoordConfig{Shards: []string{shard.URL}, Key: []string{"author"}})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	question := QuestionSpec{GroupBy: []string{"author", "venue", "year"}, Tuple: []string{"AX", "SIGKDD", "2007"}, Dir: "low"}
	for _, url := range []string{ts.URL, cts.URL} {
		for _, tc := range []struct {
			path string
			body interface{}
		}{
			{"/v1/explain", ExplainRequest{Patterns: ps, GroupBy: question.GroupBy, Tuple: question.Tuple, Dir: question.Dir, K: maxExplainK + 1}},
			{"/v1/explain/batch", ExplainBatchRequest{Patterns: ps, Questions: []QuestionSpec{question}, K: maxExplainK + 1}},
		} {
			status, body := doRaw(t, "POST", url+tc.path, tc.body)
			if status != http.StatusBadRequest || !bytes.Contains(body, []byte(limit)) {
				t.Errorf("%s%s with k %d: %d %s, want 400 naming the %s", url, tc.path, maxExplainK+1, status, body, limit)
			}
		}
	}
	// A parallelism past the box answers exactly as the box's width
	// does, from the same cache entry.
	req := ExplainRequest{Patterns: ps, GroupBy: question.GroupBy, Tuple: question.Tuple, Dir: question.Dir, K: 5}
	req.Parallelism = procs
	_, want := doRaw(t, "POST", ts.URL+"/v1/explain", req)
	hits, _, _ := cacheStatsFor(t, ts.URL, ps)
	req.Parallelism = procs + 1
	status, got := doRaw(t, "POST", ts.URL+"/v1/explain", req)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("parallelism %d: %d %s, want the GOMAXPROCS answer %s", procs+1, status, got, want)
	}
	if after, _, _ := cacheStatsFor(t, ts.URL, ps); after != hits+1 {
		t.Errorf("parallelism %d was not served from the GOMAXPROCS entry: hits %v -> %v", procs+1, hits, after)
	}
}
