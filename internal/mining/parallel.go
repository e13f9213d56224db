package mining

import (
	"runtime"

	"cape/internal/engine"
)

// runPool creates the bounded worker pool one mining run shares across
// every parallel stage: the per-attribute-set fan-out in the miners
// here, and CubeMine's per-mask fan-out inside engine.Cube, which it
// hands the same pool. Each group-by itself is one sequential scan. A
// width of 0 or less is the machine's, runtime.GOMAXPROCS(0); 1 runs
// sequentially. engine.Pool's caller-runs, non-blocking token
// acquisition makes the two levels compose without oversubscription: a
// saturated nested ForEach simply runs inline on the miner worker that
// issued it. The pool belongs to the run alone, so runs over one
// relation never share or contend for one.
func runPool(workers int) *engine.Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return engine.NewPool(workers)
}
