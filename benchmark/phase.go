package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// target is what a request phase drives: the library stack or an HTTP
// deployment. Both take indices into the run's generated inputs.
type target interface {
	// explain asks question q and returns the answer in canonical form.
	explain(q int, parent *span) ([]byte, error)
	// append applies batch b and returns once it is acknowledged.
	append(b int, parent *span) error
}

// phasePlan is a fixed, seeded op sequence: picks[i] is the question of
// the i-th explain, batches [firstBatch, firstBatch+appends) are
// appended in order, spread evenly over the explains.
type phasePlan struct {
	picks      []int
	firstBatch int
	appends    int
	clients    int
	tr         *tracer
	// afterExplain / afterAppend run on the appending client after the
	// op completed (traced runs: replay the op's input against the
	// layers); nil otherwise.
	afterExplain func(q int, op *span)
	afterAppend  func(b int, op *span)
	// atCheckpoint runs after each checkpoint append, before the answers
	// kept at that epoch are asked for; nil when there is nothing to note.
	atCheckpoint func(applied int)
}

// keptAnswer is an answer the oracle re-derives: client 0 issued it
// while applied batches (and no more) were in the table.
type keptAnswer struct {
	q       int
	applied int
	body    []byte
}

// usage is the process's resource use between two points of a phase.
type usage struct {
	cpuSeconds float64
	allocBytes uint64
	gcPauseMs  float64
	gcCycles   uint32
	wall       time.Duration
}

type phaseResult struct {
	explainMs []float64
	appendMs  []float64
	failed    int
	firstErr  error
	kept      []keptAnswer
	usage     usage
}

// ops is how many ops of the phase completed.
func (p *phaseResult) ops() int { return len(p.explainMs) + len(p.appendMs) }

// goodput is completed ops per second of the phase's wall time.
func (p *phaseResult) goodput() float64 { return float64(p.ops()) / p.usage.wall.Seconds() }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runPhase drives the plan closed-loop: every client sends its next op
// only after the previous one's reply. Explains are handed out from one
// shared sequence. Client 0 alone appends, in batch order, each append
// due once its share of the explains has been issued — so table
// contents, epochs and bytes on disk repeat exactly whatever the
// timing. After each of the checkpoint appends client 0 holds further
// appends for holdExplains of its own explains and keeps their answers:
// their table epoch is known without asking the system.
func runPhase(t target, plan phasePlan) *phaseResult {
	res := &phaseResult{}
	var mu sync.Mutex // guards res from the clients
	record := func(dst *[]float64, d time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			return
		}
		*dst = append(*dst, float64(d)/1e6)
	}

	var next atomic.Int64 // explains issued so far
	n := int64(len(plan.picks))
	explain := func(client int, keepAt int) bool {
		i := next.Add(1) - 1
		if i >= n {
			return false
		}
		q := plan.picks[i]
		op := plan.tr.start(spanOpExplain, nil, false)
		t0 := time.Now()
		body, err := t.explain(q, op)
		d := time.Since(t0)
		op.end()
		record(&res.explainMs, d, err)
		if err == nil && keepAt >= 0 {
			res.kept = append(res.kept, keptAnswer{q: q, applied: keepAt, body: body})
		}
		if client == 0 && plan.afterExplain != nil {
			plan.afterExplain(q, op)
		}
		return true
	}

	isCheckpoint := func(j int) bool {
		for k := 1; k <= checkpoints; k++ {
			if j == plan.appends*k/(checkpoints+1)-1 {
				return true
			}
		}
		return false
	}
	appender := func() {
		done, hold := 0, 0
		doAppend := func() {
			b := plan.firstBatch + done
			op := plan.tr.start(spanOpAppend, nil, false)
			t0 := time.Now()
			err := t.append(b, op)
			d := time.Since(t0)
			op.end()
			record(&res.appendMs, d, err)
			if plan.afterAppend != nil {
				plan.afterAppend(b, op)
			}
			if isCheckpoint(done) {
				hold = holdExplains
				if plan.atCheckpoint != nil {
					plan.atCheckpoint(b + 1)
				}
			}
			done++
		}
		for {
			// Append j is due once (j+1)/(appends+1) of the explains are out.
			if hold == 0 && done < plan.appends && next.Load()*int64(plan.appends+1) >= int64(done+1)*n {
				doAppend()
				continue
			}
			keepAt := -1
			if hold > 0 {
				keepAt = plan.firstBatch + done
				hold--
			}
			if !explain(0, keepAt) {
				break
			}
		}
		for done < plan.appends {
			doAppend()
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuSeconds(), time.Now()
	var wg sync.WaitGroup
	for c := 1; c < plan.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for explain(c, -1) {
			}
		}(c)
	}
	appender()
	wg.Wait()
	res.usage.wall = time.Since(t0)
	res.usage.cpuSeconds = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	res.usage.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.usage.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	res.usage.gcCycles = ms1.NumGC - ms0.NumGC
	return res
}
