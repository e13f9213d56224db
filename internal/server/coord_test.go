package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cape/internal/dataset"
	"cape/internal/engine"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/value"
)

func TestCoordinatorConfigValidation(t *testing.T) {
	cases := []CoordConfig{
		{},                             // no shards
		{Shards: []string{"http://x"}}, // no key
		{Shards: []string{""}, Key: []string{"a"}},              // empty URL
		{Shards: []string{"http://x"}, Key: []string{"a", "a"}}, // dup key
	}
	for i, cfg := range cases {
		if _, err := NewCoordinator(cfg); err == nil {
			t.Errorf("case %d: NewCoordinator(%+v) accepted an invalid config", i, cfg)
		}
	}
}

// TestCoordinatorLoadShedding: with the admission queue full, explain
// requests shed immediately with 429 + Retry-After instead of queueing.
func TestCoordinatorLoadShedding(t *testing.T) {
	c, err := NewCoordinator(CoordConfig{
		Shards: []string{"http://127.0.0.1:1"}, Key: []string{"author"}, MaxQueue: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the admission queue as two in-flight explains would.
	c.queue <- struct{}{}
	c.queue <- struct{}{}

	req := httptest.NewRequest(http.MethodPost, "/v1/explain", strings.NewReader(`{}`))
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated explain status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// Batch explains share the same queue.
	req = httptest.NewRequest(http.MethodPost, "/v1/explain/batch", strings.NewReader(`{}`))
	rec = httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated batch status = %d, want 429", rec.Code)
	}

	// Draining one slot readmits (the request then fails on lookup, not
	// on admission).
	<-c.queue
	req = httptest.NewRequest(http.MethodPost, "/v1/explain",
		strings.NewReader(`{"patterns":"ps-1","groupBy":["author"],"tuple":["AX"],"dir":"low"}`))
	rec = httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if rec.Code == http.StatusTooManyRequests {
		t.Fatal("request shed after queue drained")
	}
}

// TestCoordinatorStatusAggregation: GET /v1 must fold per-shard status
// into deployment-level freshness and name shards that diverged or
// became unreachable.
func TestCoordinatorStatusAggregation(t *testing.T) {
	tab := dataset.RunningExample()
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	shard0 := httptest.NewServer(New())
	t.Cleanup(shard0.Close)
	shard1 := httptest.NewServer(New())
	t.Cleanup(shard1.Close)
	coord, err := NewCoordinator(CoordConfig{
		Shards: []string{shard0.URL, shard1.URL}, Key: []string{"author"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)

	resp, err := http.Post(cts.URL+"/v1/tables?name=pub", "text/csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d", resp.StatusCode)
	}
	mresp, mout := doJSON(t, "POST", cts.URL+"/v1/mine", MineRequest{
		Table: "pub", MaxPatternSize: 3,
		Theta: 0.5, LocalSupport: 3, Lambda: 0.3, GlobalSupport: 2,
		Aggregates: []string{"count"},
	})
	if mresp.StatusCode != http.StatusCreated {
		t.Fatalf("mine: %d %v", mresp.StatusCode, mout)
	}

	// Healthy deployment: totals add up, nothing diverged.
	sresp, status := doJSON(t, "GET", cts.URL+"/v1", nil)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", sresp.StatusCode)
	}
	if status["role"] != "coordinator" {
		t.Fatalf("role = %v", status["role"])
	}
	tables := status["tables"].([]interface{})
	if len(tables) != 1 {
		t.Fatalf("tables = %v", tables)
	}
	if rows := tables[0].(map[string]interface{})["rows"].(float64); int(rows) != tab.NumRows() {
		t.Fatalf("aggregate rows = %v, want %d", rows, tab.NumRows())
	}
	if d, _ := status["diverged"].([]interface{}); len(d) != 0 {
		t.Fatalf("healthy deployment reports diverged = %v", d)
	}
	sets := status["patternSets"].([]interface{})
	if len(sets) != 1 || sets[0].(map[string]interface{})["freshness"] != "fresh" {
		t.Fatalf("patternSets = %v", sets)
	}

	// Replace shard 0's partition behind the coordinator's back with a
	// truncated table (header + first row): the shard's pattern set
	// stamp is now ahead of its table on rows — diverged.
	var full bytes.Buffer
	if err := tab.WriteCSV(&full); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(full.String(), "\n", 3)
	if len(lines) < 3 {
		t.Fatalf("expected ≥2 CSV lines, got %q", full.String())
	}
	truncated := lines[0] + "\n" + lines[1] + "\n"
	resp, err = http.Post(shard0.URL+"/v1/tables?name=pub", "text/csv", strings.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	_, status = doJSON(t, "GET", cts.URL+"/v1", nil)
	sets = status["patternSets"].([]interface{})
	if got := sets[0].(map[string]interface{})["freshness"]; got != "diverged" {
		t.Fatalf("freshness after shard reload = %v, want diverged", got)
	}
	d, _ := status["diverged"].([]interface{})
	if len(d) == 0 || !strings.Contains(d[0].(string), shard0.URL) {
		t.Fatalf("diverged = %v, want entry naming %s", d, shard0.URL)
	}

	// Kill shard 1: it must be reported unreachable, not silently
	// dropped from the aggregate.
	shard1.Close()
	_, status = doJSON(t, "GET", cts.URL+"/v1", nil)
	d, _ = status["diverged"].([]interface{})
	found := false
	for _, e := range d {
		if strings.Contains(e.(string), "unreachable") {
			found = true
		}
	}
	if !found {
		t.Fatalf("diverged after shard death = %v, want an unreachable entry", d)
	}
}

// TestCoordinatorAppendRowsTotal: the append response's top-level
// "rows" must be the deployment-wide table total (single-node parity),
// not the sum over the shards the batch happened to touch. A
// single-author batch routes to exactly one shard, so the two differ
// unless the coordinator tracks the untouched shards' counts.
func TestCoordinatorAppendRowsTotal(t *testing.T) {
	tab := dataset.RunningExample()
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	shard0 := httptest.NewServer(New())
	t.Cleanup(shard0.Close)
	shard1 := httptest.NewServer(New())
	t.Cleanup(shard1.Close)
	coord, err := NewCoordinator(CoordConfig{
		Shards: []string{shard0.URL, shard1.URL}, Key: []string{"author"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)

	resp, err := http.Post(cts.URL+"/v1/tables?name=pub", "text/csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load: %d", resp.StatusCode)
	}

	row := func(author string, year int) []json.RawMessage {
		return []json.RawMessage{
			json.RawMessage(`"` + author + `"`),
			json.RawMessage(`"VLDB"`),
			json.RawMessage(strconv.Itoa(year)),
		}
	}
	aresp, out := doJSON(t, "POST", cts.URL+"/v1/append", AppendRequest{
		Table: "pub",
		Rows:  [][]json.RawMessage{row("AX", 2010), row("AX", 2011)},
	})
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %v", aresp.StatusCode, out)
	}
	if got := int(out["appended"].(float64)); got != 2 {
		t.Fatalf("appended = %d, want 2", got)
	}
	acks := out["shards"].([]interface{})
	if len(acks) != 1 {
		t.Fatalf("single-author batch touched %d shards, want 1: %v", len(acks), acks)
	}
	want := tab.NumRows() + 2
	if got := int(out["rows"].(float64)); got != want {
		t.Fatalf("append reports rows = %d, want deployment total %d", got, want)
	}

	// A second batch to the same shard keeps the total honest.
	aresp, out = doJSON(t, "POST", cts.URL+"/v1/append", AppendRequest{
		Table: "pub",
		Rows:  [][]json.RawMessage{row("AX", 2012)},
	})
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("second append: %d %v", aresp.StatusCode, out)
	}
	if got := int(out["rows"].(float64)); got != want+1 {
		t.Fatalf("second append reports rows = %d, want %d", got, want+1)
	}
}

// TestCoordinatorAppendRefreshesNonLastShard: every shard names its
// first pattern set "ps-1", so an append's refreshed evidence must be
// matched to a set by shard position, not by set id alone. Appends that
// land only on shard 0 of 3 add well-fit fragments until a candidate's
// global confidence crosses λ; after every append the coordinator's
// admitted keys must equal a cold single-node mine of all the rows.
func TestCoordinatorAppendRefreshesNonLastShard(t *testing.T) {
	const nShards = 3
	part := engine.Partitioner{Key: []string{"author"}, N: nShards}
	next := 0
	authorOn := func(shard int) string { // a fresh author name the shard owns
		for {
			name := "a" + strconv.Itoa(next)
			next++
			if part.ShardOf(value.Tuple{value.NewString(name)}) == shard {
				return name
			}
		}
	}
	// One author is one fragment of [author]: year -> count(*): a steady
	// author publishes twice a year (a perfect constant fit), an erratic
	// one 1, 9, 1, 9, 1 (no fit).
	years := []int{2000, 2001, 2002, 2003, 2004}
	authorRows := func(name string, steady bool) [][]json.RawMessage {
		var rows [][]json.RawMessage
		for i, y := range years {
			n := 2
			if !steady {
				n = 1 + 8*(i%2)
			}
			for ; n > 0; n-- {
				rows = append(rows, []json.RawMessage{
					json.RawMessage(strconv.Quote(name)), json.RawMessage(strconv.Itoa(y)),
				})
			}
		}
		return rows
	}
	// Two erratic authors per shard and two steady ones on the last
	// shard: confidence 2/8, and 6/12 ≥ λ after the fourth append.
	var initial [][]json.RawMessage
	for s := 0; s < nShards; s++ {
		initial = append(initial, authorRows(authorOn(s), false)...)
		initial = append(initial, authorRows(authorOn(s), false)...)
	}
	initial = append(initial, authorRows(authorOn(nShards-1), true)...)
	initial = append(initial, authorRows(authorOn(nShards-1), true)...)
	csv := []byte("author,year\n")
	for _, r := range initial {
		csv = append(csv, strings.Trim(string(r[0]), `"`)+","+string(r[1])+"\n"...)
	}

	urls := make([]string, nShards)
	for i := range urls {
		ts := httptest.NewServer(New())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	coord, err := NewCoordinator(CoordConfig{Shards: urls, Key: part.Key})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	bts := httptest.NewServer(New())
	t.Cleanup(bts.Close)
	for _, url := range []string{cts.URL, bts.URL} {
		resp, err := http.Post(url+"/v1/tables?name=pub", "text/csv", bytes.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("load table on %s: status %d", url, resp.StatusCode)
		}
	}
	mine := MineRequest{
		Table: "pub", MaxPatternSize: 2, Attributes: []string{"author", "year"},
		Theta: 0.5, LocalSupport: 3, Lambda: 0.5, GlobalSupport: 2,
		Aggregates: []string{"count"},
	}
	resp, out := doJSON(t, "POST", cts.URL+"/v1/mine", mine)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("coordinator mine: %d %v", resp.StatusCode, out)
	}
	f := &shardedFixture{coordURL: cts.URL, coordID: out["id"].(string)}

	// coldKeys mines the single node from scratch with the real
	// thresholds and keeps the key-local patterns.
	coldKeys := func() []string {
		resp, out := doJSON(t, "POST", bts.URL+"/v1/mine", mine)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("reference mine: %d %v", resp.StatusCode, out)
		}
		_, pout := doJSON(t, "GET", bts.URL+"/v1/patterns/"+out["id"].(string), nil)
		var keys []string
		for _, p := range pout["patterns"].([]interface{}) {
			if k := p.(map[string]interface{})["key"].(string); keyInPatternF(k, part.Key) {
				keys = append(keys, k)
			}
		}
		return keys
	}
	before := coldKeys()
	if got := f.coordAdmittedKeys(t); !reflect.DeepEqual(got, before) {
		t.Fatalf("admitted keys diverge before any append:\n sharded: %v\n single:  %v", got, before)
	}
	for i := 0; i < 5; i++ {
		req := AppendRequest{Table: "pub", Rows: authorRows(authorOn(0), true)}
		for _, url := range []string{bts.URL, cts.URL} {
			if resp, out := doJSON(t, "POST", url+"/v1/append", req); resp.StatusCode != http.StatusOK {
				t.Fatalf("append %d on %s: %d %v", i, url, resp.StatusCode, out)
			}
		}
		if got, want := f.coordAdmittedKeys(t), coldKeys(); !reflect.DeepEqual(got, want) {
			t.Fatalf("admitted keys diverge after append %d:\n sharded: %v\n single:  %v", i, got, want)
		}
	}
	if after := coldKeys(); reflect.DeepEqual(after, before) {
		t.Fatal("no candidate crossed λ during the append stream; the check is vacuous")
	}
}

func TestKeyInPatternF(t *testing.T) {
	cases := []struct {
		pkey string
		key  []string
		want bool
	}{
		{"author|year|count(*)|Const", []string{"author"}, true},
		{"author,venue|year|count(*)|Const", []string{"author"}, true},
		{"author,venue|year|count(*)|Const", []string{"author", "venue"}, true},
		{"venue|year|count(*)|Const", []string{"author"}, false},
		{"venue,year|author|count(*)|Const", []string{"author"}, false}, // key in V, not F
		{"|author|count(*)|Const", []string{"author"}, false},
	}
	for _, c := range cases {
		if got := keyInPatternF(c.pkey, c.key); got != c.want {
			t.Errorf("keyInPatternF(%q, %v) = %v, want %v", c.pkey, c.key, got, c.want)
		}
	}
}

func TestAdmittedKeysGates(t *testing.T) {
	th := pattern.Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.5, GlobalSupport: 3}
	shard0 := []candStatFor{{"author|year|count(*)|Const", 2, 2}, {"author|year|count(*)|Lin", 0, 3}, {"venue|year|count(*)|Const", 3, 3}}
	shard1 := []candStatFor{{"author|year|count(*)|Const", 1, 1}, {"author|year|count(*)|Lin", 1, 1}}
	got := admittedKeys(toCandStats(shard0, shard1), th, []string{"author"})
	// Const: good 3/supp 3 ⇒ conf 1 ≥ λ, Δ ok, key-local ⇒ admitted.
	// Lin: good 1 < Δ ⇒ rejected even though shard 1 alone has conf 1.
	// venue pattern: passes the numeric gates but is not key-local.
	want := []string{"author|year|count(*)|Const"}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("admitted = %v, want %v", got, want)
	}

	// The λ denominator must include shards with zero good locals:
	// shard 1 has supported-but-unfit fragments that dilute confidence.
	th = pattern.Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.6, GlobalSupport: 1}
	dilute0 := []candStatFor{{"author|year|count(*)|Const", 3, 3}}
	dilute1 := []candStatFor{{"author|year|count(*)|Const", 0, 3}}
	if got := admittedKeys(toCandStats(dilute0, dilute1), th, []string{"author"}); len(got) != 0 {
		t.Fatalf("conf 3/6 passed λ=0.6: %v", got)
	}
	if got := admittedKeys(toCandStats(dilute0), th, []string{"author"}); len(got) != 1 {
		t.Fatalf("conf 3/3 failed λ=0.6: %v", got)
	}
}

type candStatFor struct {
	key        string
	good, supp int
}

func toCandStats(shards ...[]candStatFor) [][]mining.CandStat {
	out := make([][]mining.CandStat, len(shards))
	for i, sh := range shards {
		for _, c := range sh {
			out[i] = append(out[i], mining.CandStat{Key: c.key, Good: c.good, Supported: c.supp})
		}
	}
	return out
}
