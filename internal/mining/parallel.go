package mining

import (
	"runtime"

	"cape/internal/engine"
)

// runPool creates the bounded worker pool one mining run shares across
// every parallel stage — the per-attribute-set fan-out in the miners
// here, and the engine's per-mask cube and per-part SegTable.SelectEq
// fan-out — and attaches it to the relation when it supports pools
// (engine.Table, engine.SegTable). Each group-by itself is one
// sequential scan. A width of 0 or less is the machine's,
// runtime.GOMAXPROCS(0); 1 runs sequentially. engine.Pool's
// caller-runs, non-blocking token acquisition makes the two levels
// compose without oversubscription: a saturated nested ForEach simply
// runs inline on the miner worker that issued the query. detach ends
// this run's attachment, leaving any other run's in place; callers must
// invoke it when the run finishes.
func runPool(r engine.Relation, workers int) (pool *engine.Pool, detach func()) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool = engine.NewPool(workers)
	if pa, ok := r.(poolAttacher); ok && workers > 1 {
		return pool, pa.AttachPool(pool)
	}
	return pool, func() {}
}

// poolAttacher is a relation whose query kernels can fan work across a
// run's pool until the run detaches it (engine.Table, engine.SegTable).
type poolAttacher interface {
	AttachPool(*engine.Pool) (detach func())
}
