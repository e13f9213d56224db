package server

import (
	"net/http"
	"reflect"
	"testing"

	"cape/internal/pattern"
)

// TestPatternStoreSurvivesRestart is the persistence round trip at the
// server level: patterns mined by one server instance, saved with
// pattern.SaveStoreStamped, and loaded into a fresh instance (the
// -patterns-dir startup path) must answer an explain request with
// exactly the same explanations as the original in-memory set.
func TestPatternStoreSurvivesRestart(t *testing.T) {
	sA, tsA := newTestServer(t)
	loadRunningExample(t, tsA)
	id := mineExample(t, tsA)

	sA.mu.RLock()
	mined := sA.patterns[id].patterns
	sA.mu.RUnlock()
	dir := t.TempDir()
	if _, err := pattern.SaveStoreStamped(dir, "pub", mined, nil, nil); err != nil {
		t.Fatal(err)
	}

	sB, tsB := newTestServer(t)
	loadRunningExample(t, tsB)
	entries, err := pattern.LoadStoreEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Table != "pub" {
		t.Fatalf("store holds %+v, want one entry for pub", entries)
	}
	loadedID, _ := sB.AddPatternSetEntry(entries[0])
	if loadedID == "" {
		t.Fatal("AddPatternSetEntry returned empty id")
	}

	req := ExplainRequest{
		Patterns: "",
		GroupBy:  []string{"author", "venue", "year"},
		Tuple:    []string{"AX", "SIGKDD", "2007"},
		Dir:      "low",
		K:        5,
		Numeric:  map[string]float64{"year": 4},
	}
	req.Patterns = id
	respA, outA := doJSON(t, "POST", tsA.URL+"/v1/explain", req)
	req.Patterns = loadedID
	respB, outB := doJSON(t, "POST", tsB.URL+"/v1/explain", req)
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("explain statuses = %d / %d: %v / %v",
			respA.StatusCode, respB.StatusCode, outA, outB)
	}
	if !reflect.DeepEqual(outA["explanations"], outB["explanations"]) {
		t.Errorf("explanations differ after store round trip:\n  mined:  %v\n  loaded: %v",
			outA["explanations"], outB["explanations"])
	}

	// The loaded set is introspectable like a mined one.
	resp, out := doJSON(t, "GET", tsB.URL+"/v1/patterns/"+loadedID, nil)
	if resp.StatusCode != http.StatusOK || out["table"] != "pub" {
		t.Fatalf("get loaded patterns = %d %v", resp.StatusCode, out)
	}
}
