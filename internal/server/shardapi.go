package server

import (
	"net/http"

	"cape/internal/pattern"
)

// Shard role of the sharded deployment (DESIGN.md §15). A capeshard
// coordinator runs each shard as a plain capeserver holding one hash
// partition of every table, and drives it through two extensions:
//
//   - POST /v1/mine with "withStats": the shard mines through the
//     maintainer (byte-identical to ARPMine) and reports the raw
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
	if ps.maintainer == nil {
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "pattern set %q was not mined withStats; admission needs the retained mining state", id)
		return
	}
	admitted := make(map[string]bool, len(req.Keys))
	for _, k := range req.Keys {
		admitted[k] = true
	}
	ps.admitted = admitted
	served := filterAdmitted(ps.maintainer.Patterns(), admitted)
	ps.serve(served)
	// Admission swaps the served list without touching the table, so the
	// version bump is what invalidates this set's cached answers.
	ps.version++
	if e, ok := s.explainers[ps.ID]; ok {
		if tab, tok := s.tables[ps.Table]; tok && e.table == tab {
			e.ex.SetPatterns(served)
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"id": id, "admitted": len(req.Keys), "patterns": len(served), "localModels": ps.Locals,
	})
}

// filterAdmitted keeps the patterns whose key the coordinator admitted.
// The input is Patterns() output (sorted by key), so the filtered list
// stays sorted — explain iterates it in this order.
func filterAdmitted(mined []*pattern.Mined, admitted map[string]bool) []*pattern.Mined {
	if admitted == nil {
		return mined
	}
	out := make([]*pattern.Mined, 0, len(mined))
	for _, m := range mined {
		if admitted[m.Pattern.Key()] {
			out = append(out, m)
		}
	}
	return out
}
