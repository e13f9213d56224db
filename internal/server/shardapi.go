package server

import "net/http"

// Shard role of the sharded deployment (DESIGN.md §15). A capeshard
// coordinator runs each shard as a plain capeserver holding one hash
// partition of every table, and drives it through two extensions:
//
//   - POST /v1/mine with "withStats": the shard mines as every set is
//     mined, through the Maintainer, and also reports the raw
//     per-candidate evidence — good / supported / total fragments —
//     including candidates with zero good locals. Shards are mined
//     with loosened global thresholds (λ=0, Δ=1); the real gates are
//     per-fragment (θ, local support) and fragments are wholly owned
//     by one shard, so summing the counters across shards reproduces
//     the single-node evidence exactly.
//   - POST /v1/patterns/{id}/admit: the coordinator applies the real
//     λ/Δ gates to the summed counters and pushes the surviving key
//     set down; the shard serves only admitted patterns from then on,
//     re-applying the filter after every maintenance pass.

// AdmitRequest is the body of POST /v1/patterns/{id}/admit: the set of
// pattern keys (pattern.Key()) this shard may serve. Keys the shard
// never mined are ignored — a shard holding no good local for an
// admitted pattern has nothing to serve for it, which is exactly the
// single-node behavior for fragments it does not own.
type AdmitRequest struct {
	Keys []string `json:"keys"`
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req AdmitRequest
	if !readJSON(w, r, &req) {
		return
	}
	id := r.PathValue("id")
	s.mu.Lock()
	ps, ok := s.patterns[id]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown pattern set %q", id)
		return
	}
	if !ps.Options.WithStats {
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "pattern set %q was not mined withStats; admission needs the candidate evidence", id)
		return
	}
	ps.admitted = make(map[string]bool, len(req.Keys))
	for _, k := range req.Keys {
		ps.admitted[k] = true
	}
	// Admission swaps the served list without touching the table, so the
	// version bump in serve is what invalidates this set's cached
	// answers.
	ps.serve(ps.maintainer.Patterns())
	count, locals := ps.Count, ps.Locals
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"id": id, "admitted": len(req.Keys), "patterns": count, "localModels": locals,
	})
}
