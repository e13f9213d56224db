package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cape/internal/dataset"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body interface{}) (*http.Response, map[string]interface{}) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]interface{}
	dec := json.NewDecoder(resp.Body)
	_ = dec.Decode(&out)
	return resp, out
}

func loadRunningExample(t *testing.T, ts *httptest.Server) {
	t.Helper()
	var csv bytes.Buffer
	if err := dataset.RunningExample().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/tables?name=pub", "text/csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load table status = %d", resp.StatusCode)
	}
}

func mineExample(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, out := doJSON(t, "POST", ts.URL+"/v1/mine", MineRequest{
		Table:          "pub",
		MaxPatternSize: 3,
		Theta:          0.5, LocalSupport: 3, Lambda: 0.3, GlobalSupport: 2,
		Aggregates: []string{"count"},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mine status = %d: %v", resp.StatusCode, out)
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("mine response missing id: %v", out)
	}
	if n, _ := out["patterns"].(float64); n == 0 {
		t.Fatal("mine found no patterns")
	}
	return id
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := doJSON(t, "GET", ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, out)
	}
}

func TestLoadAndList(t *testing.T) {
	_, ts := newTestServer(t)
	loadRunningExample(t, ts)

	resp, err := http.Get(ts.URL + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tables []map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0]["name"] != "pub" || tables[0]["rows"].(float64) != 150 {
		t.Fatalf("tables = %v", tables)
	}
}

func TestMineAndExplainFlow(t *testing.T) {
	_, ts := newTestServer(t)
	loadRunningExample(t, ts)
	id := mineExample(t, ts)

	// Inspect the pattern set.
	resp, out := doJSON(t, "GET", ts.URL+"/v1/patterns/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get patterns = %d", resp.StatusCode)
	}
	if out["table"] != "pub" {
		t.Errorf("pattern set table = %v", out["table"])
	}

	// Ask the running-example question.
	resp, out = doJSON(t, "POST", ts.URL+"/v1/explain", ExplainRequest{
		Patterns: id,
		GroupBy:  []string{"author", "venue", "year"},
		Tuple:    []string{"AX", "SIGKDD", "2007"},
		Dir:      "low",
		K:        5,
		Numeric:  map[string]float64{"year": 4},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status = %d: %v", resp.StatusCode, out)
	}
	expls := out["explanations"].([]interface{})
	if len(expls) == 0 {
		t.Fatal("no explanations returned")
	}
	top := expls[0].(map[string]interface{})
	joined := fmt.Sprintf("%v%v", top["attrs"], top["tuple"])
	if !strings.Contains(joined, "ICDE") || !strings.Contains(joined, "2007") {
		t.Errorf("top explanation = %v", top)
	}
	if top["narration"] == "" {
		t.Error("narration missing")
	}
	if _, ok := out["stats"].(map[string]interface{}); !ok {
		t.Error("stats missing")
	}
}

func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t)
	loadRunningExample(t, ts)
	id := mineExample(t, ts)

	cases := []struct {
		name   string
		method string
		path   string
		body   interface{}
		want   int
	}{
		{"load without name", "POST", "/v1/tables", nil, http.StatusBadRequest},
		{"mine unknown table", "POST", "/v1/mine", MineRequest{Table: "ghost"}, http.StatusNotFound},
		{"mine bad aggregate", "POST", "/v1/mine", MineRequest{Table: "pub", Aggregates: []string{"median"}}, http.StatusBadRequest},
		{"patterns unknown id", "GET", "/v1/patterns/ps-999", nil, http.StatusNotFound},
		{"explain unknown set", "POST", "/v1/explain", ExplainRequest{Patterns: "ps-999", GroupBy: []string{"a"}, Tuple: []string{"x"}, Dir: "low"}, http.StatusNotFound},
		{"explain bad dir", "POST", "/v1/explain", ExplainRequest{Patterns: id, GroupBy: []string{"author"}, Tuple: []string{"AX"}, Dir: "sideways"}, http.StatusBadRequest},
		{"explain arity", "POST", "/v1/explain", ExplainRequest{Patterns: id, GroupBy: []string{"author"}, Tuple: []string{"AX", "extra"}, Dir: "low"}, http.StatusBadRequest},
		{"explain non-result", "POST", "/v1/explain", ExplainRequest{Patterns: id, GroupBy: []string{"author"}, Tuple: []string{"NOBODY"}, Dir: "low"}, http.StatusBadRequest},
		{"explain bad scale", "POST", "/v1/explain", ExplainRequest{Patterns: id, GroupBy: []string{"author", "venue", "year"}, Tuple: []string{"AX", "SIGKDD", "2007"}, Dir: "low", Numeric: map[string]float64{"year": -1}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := doJSON(t, c.method, ts.URL+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

// TestRejectsUnknownFieldsAndGarbage: request bodies decode strictly.
// An unknown field is a 400 — among them "table" and "expected", which
// /v1/explain no longer takes — and so is data after the JSON object.
func TestRejectsUnknownFieldsAndGarbage(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range []struct{ path, body string }{
		{"/v1/mine", `{"table":"pub","bogus":true}`},
		{"/v1/mine", `{"table":"pub"} trailing`},
		{"/v1/explain", `{"patterns":"ps-1","table":"pub","groupBy":["author"],"tuple":["AX"],"dir":"low"}`},
		{"/v1/explain", `{"patterns":"ps-1","expected":3,"groupBy":["author"],"tuple":["AX"],"dir":"high"}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
}

func TestAggregateSpecInExplain(t *testing.T) {
	_, ts := newTestServer(t)
	loadRunningExample(t, ts)
	id := mineExample(t, ts)
	// Explicit count(*) aggregate string parses.
	resp, _ := doJSON(t, "POST", ts.URL+"/v1/explain", ExplainRequest{
		Patterns:  id,
		GroupBy:   []string{"author", "venue", "year"},
		Aggregate: "count(*)",
		Tuple:     []string{"AX", "SIGKDD", "2007"},
		Dir:       "low",
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("count(*) aggregate rejected: %d", resp.StatusCode)
	}
	// Malformed aggregate string errors.
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/explain", ExplainRequest{
		Patterns:  id,
		GroupBy:   []string{"author"},
		Aggregate: "count",
		Tuple:     []string{"AX"},
		Dir:       "low",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed aggregate accepted: %d", resp.StatusCode)
	}
}

func TestAddTableProgrammatic(t *testing.T) {
	s, ts := newTestServer(t)
	s.AddTable("direct", dataset.RunningExample())
	resp, out := doJSON(t, "POST", ts.URL+"/v1/mine", MineRequest{Table: "direct", Aggregates: []string{"count"}})
	if resp.StatusCode != http.StatusCreated || out["table"] != "direct" {
		t.Fatalf("mine on AddTable'd table: %d %v", resp.StatusCode, out)
	}
}
