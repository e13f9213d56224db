package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"cape/internal/dataset"
	"cape/internal/value"
)

// TestMineBuildsTheMaintainer pins the single mining path: /v1/mine
// builds the set's Maintainer, and the first /v1/append folds the batch
// into that same Maintainer — "maintained", no second build — leaving
// the set equal to a cold ARPMine over the grown table.
func TestMineBuildsTheMaintainer(t *testing.T) {
	s, ts := newTestServer(t)
	loadRunningExample(t, ts)
	id := mineExample(t, ts)
	s.mu.RLock()
	ps := s.patterns[id]
	built := ps.maintainer
	s.mu.RUnlock()
	if built == nil {
		t.Fatal("/v1/mine left the set without a Maintainer")
	}
	tab, _ := s.Table("pub")
	requireSetEquals(t, s, id, tab)

	resp, out := doJSON(t, "POST", ts.URL+"/v1/append",
		appendBody([]interface{}{"AX", "VLDB", 2008}, []interface{}{"NEW", "SIGKDD", 2009}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status = %d: %v", resp.StatusCode, out)
	}
	st := out["patternSets"].([]interface{})[0].(map[string]interface{})
	if st["id"] != id || st["status"] != "maintained" {
		t.Fatalf("set status = %v", st)
	}
	s.mu.RLock()
	after := ps.maintainer
	s.mu.RUnlock()
	if after != built {
		t.Error("the first append built a second Maintainer instead of folding into the mined one")
	}

	grown := dataset.RunningExample()
	if err := grown.AppendRows([]value.Tuple{
		{value.NewString("AX"), value.NewString("VLDB"), value.NewInt(2008)},
		{value.NewString("NEW"), value.NewString("SIGKDD"), value.NewInt(2009)},
	}); err != nil {
		t.Fatal(err)
	}
	requireSetEquals(t, s, id, grown)
}

// TestMineRefusesUseFDs: FD pruning is not a /v1/mine option. A body
// that asks for it is refused with a 400 naming the field, by a server
// and by a coordinator alike, rather than mined without it.
func TestMineRefusesUseFDs(t *testing.T) {
	_, ts := newTestServer(t)
	loadRunningExample(t, ts)
	body := `{"table":"pub","maxPatternSize":3,"aggregates":["count"],"useFDs":true}`
	status, reply := doRaw(t, "POST", ts.URL+"/v1/mine", json.RawMessage(body))
	if status != http.StatusBadRequest || !strings.Contains(string(reply), "useFDs") {
		t.Errorf("server: useFDs mine = %d %s, want a 400 naming useFDs", status, reply)
	}

	// The coordinator decodes the body before it contacts any shard, so
	// an unreachable shard address suffices.
	c, err := NewCoordinator(CoordConfig{Shards: []string{"http://127.0.0.1:1"}, Key: []string{"author"}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/mine", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "useFDs") {
		t.Errorf("coordinator: useFDs mine = %d %s, want a 400 naming useFDs", rec.Code, rec.Body)
	}
}

// TestAdmitRefusesOrdinarySet: admission is for sets mined withStats.
// An ordinary mined set holds a Maintainer too, yet /admit still
// answers 409 and leaves its served list alone.
func TestAdmitRefusesOrdinarySet(t *testing.T) {
	s, ts := newTestServer(t)
	loadRunningExample(t, ts)
	id := mineExample(t, ts)
	s.mu.RLock()
	before := s.patterns[id].Count
	s.mu.RUnlock()
	resp, out := doJSON(t, "POST", ts.URL+"/v1/patterns/"+id+"/admit", AdmitRequest{Keys: []string{}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("admit on an ordinary set = %d %v, want 409", resp.StatusCode, out)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if got := s.patterns[id].Count; got != before || s.patterns[id].admitted != nil {
		t.Errorf("refused admission changed the set: %d patterns, was %d", got, before)
	}
}

// TestMineLimitsParallelism pins /v1/mine's width limits, shared by
// server and coordinator: a width above GOMAXPROCS clamps to it (checked
// on the width the request computes, so no pool of the requested width
// ever starts), 0 stays the miner's default, a negative width is a 400
// naming the field, and a mined set echoes — and keeps maintaining at —
// the clamped width.
func TestMineLimitsParallelism(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ asked, want int }{{0, 0}, {1, 1}, {procs, procs}, {procs + 1, procs}, {1 << 30, procs}} {
		req := MineRequest{Parallelism: tc.asked}
		opt, err := req.options()
		if err != nil || opt.Parallelism != tc.want || req.Parallelism != tc.want {
			t.Errorf("parallelism %d: options width %d, request echoes %d (err %v), want %d",
				tc.asked, opt.Parallelism, req.Parallelism, err, tc.want)
		}
	}

	s, ts := newTestServer(t)
	loadRunningExample(t, ts)
	bad := MineRequest{Table: "pub", Parallelism: -1}
	if status, reply := doRaw(t, "POST", ts.URL+"/v1/mine", bad); status != http.StatusBadRequest || !strings.Contains(string(reply), "parallelism") {
		t.Errorf("server: negative width mine = %d %s, want a 400 naming parallelism", status, reply)
	}
	wide := MineRequest{Table: "pub", MaxPatternSize: 3, Aggregates: []string{"count"},
		Theta: 0.5, LocalSupport: 3, Lambda: 0.3, GlobalSupport: 2, Parallelism: procs + 1}
	resp, out := doJSON(t, "POST", ts.URL+"/v1/mine", wide)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("server: mine = %d %v", resp.StatusCode, out)
	}
	if got := out["options"].(map[string]interface{})["parallelism"]; got != float64(procs) {
		t.Errorf("server: the set echoes parallelism %v, want the clamped %d", got, procs)
	}
	s.mu.RLock()
	kept := s.patterns[out["id"].(string)].Options.Parallelism
	s.mu.RUnlock()
	if kept != procs {
		t.Errorf("server: appends would maintain the set at width %d, want %d", kept, procs)
	}

	shard := httptest.NewServer(New())
	t.Cleanup(shard.Close)
	c, err := NewCoordinator(CoordConfig{Shards: []string{shard.URL}, Key: []string{"author"}})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(c)
	t.Cleanup(cts.Close)
	var csv bytes.Buffer
	if err := dataset.RunningExample().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	load, err := http.Post(cts.URL+"/v1/tables?name=pub", "text/csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	load.Body.Close()
	if load.StatusCode != http.StatusCreated {
		t.Fatalf("coordinator: load status = %d", load.StatusCode)
	}
	if status, reply := doRaw(t, "POST", cts.URL+"/v1/mine", bad); status != http.StatusBadRequest || !strings.Contains(string(reply), "parallelism") {
		t.Errorf("coordinator: negative width mine = %d %s, want a 400 naming parallelism", status, reply)
	}
	resp, out = doJSON(t, "POST", cts.URL+"/v1/mine", wide)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("coordinator: mine = %d %v", resp.StatusCode, out)
	}
	if got := out["options"].(map[string]interface{})["parallelism"]; got != float64(procs) {
		t.Errorf("coordinator: the set echoes parallelism %v, want the clamped %d", got, procs)
	}
}
