package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestTiersServeOneRouteSet sends every /v1 route to a Server and to a
// Coordinator. A route is served when its handler answers — with JSON,
// whatever the status, for the bodies here are mostly invalid — and not
// the mux's plain-text 404 or 405, nor a 501. Both tiers serve the same
// routes, except the shard-only admission push; the routes outside the
// paper's pipeline are unknown to both.
func TestTiersServeOneRouteSet(t *testing.T) {
	shards := make([]string, 2)
	for i := range shards {
		ts := httptest.NewServer(New())
		t.Cleanup(ts.Close)
		shards[i] = ts.URL
	}
	coord, err := NewCoordinator(CoordConfig{Shards: shards, Key: []string{"author"}})
	if err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name string
		h    http.Handler
	}{{"server", New()}, {"coordinator", coord}}

	const (
		both = iota
		serverOnly
		neither
	)
	routes := []struct {
		method, path, body string
		servedBy           int
	}{
		{"GET", "/healthz", "", both},
		{"GET", "/v1", "", both},
		{"GET", "/v1/", "", both},
		{"GET", "/v1/tables", "", both},
		{"POST", "/v1/tables?name=pub", "author,year\nAX,2007\n", both},
		{"POST", "/v1/append", "{}", both},
		{"POST", "/v1/mine", "{}", both},
		{"GET", "/v1/patterns/ps-9", "", both},
		{"POST", "/v1/patterns/ps-9/admit", "{}", serverOnly},
		{"POST", "/v1/explain", "{}", both},
		{"POST", "/v1/explain/batch", "{}", both},
		{"POST", "/v1/query", `{"sql":"SELECT author FROM pub"}`, neither},
		{"POST", "/v1/generalize", "{}", neither},
		{"POST", "/v1/intervene", "{}", neither},
		{"POST", "/v1/baseline", "{}", neither},
	}
	for _, r := range routes {
		for _, tier := range tiers {
			rec := httptest.NewRecorder()
			tier.h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
			served := strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") &&
				rec.Code != http.StatusNotImplemented
			want := r.servedBy == both || (r.servedBy == serverOnly && tier.name == "server")
			switch {
			case served != want:
				t.Errorf("%s %s on the %s: status %d (%s), served = %v, want %v",
					r.method, r.path, tier.name, rec.Code, strings.TrimSpace(rec.Body.String()), served, want)
			case r.servedBy == neither && rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed:
				t.Errorf("%s %s on the %s: status %d, want 404 or 405", r.method, r.path, tier.name, rec.Code)
			}
		}
	}
}
