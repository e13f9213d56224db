package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
