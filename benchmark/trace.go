package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"cape/internal/store"
)

// Span names. An op span is one request-phase operation as its caller
// saw it; the others are calls into one layer's public functions, made
// by the harness for that op (in the library workload they are the op's
// own steps, in the HTTP workloads a replay of its input right after
// it), and carry the op's span as parent.
const (
	spanOpExplain = "op.explain"
	spanOpAppend  = "op.append"

	spanGroupBy       = "engine.groupby"
	spanIndexRelevant = "explain.index_relevant"
	spanGenerate      = "explain.generate"
	spanGenerateCold  = "explain.generate_cold"
	spanIndexBuild    = "explain.index_build"
	spanStoreAppend   = "store.append"
	spanStoreFlush    = "store.flush"
	spanMaintainApply = "mining.maintainer_apply"
	spanCoordHit      = "coord.hit_http"
	spanCoordMiss     = "coord.miss_http"
	spanShardDirect   = "coord.shard_direct"
)

// span is one timed call. Start and End are nanoseconds since the
// tracer was created; Parent is 0 for an op span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	// Step marks a call the op itself makes on its way to the reply (an
	// op's self time is its duration minus its steps); the other child
	// spans are diagnostics that the op does not wait for.
	Step bool `json:"step,omitempty"`

	tr *tracer
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans in memory; a nil tracer records nothing, so
// untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (nil for an op span).
func (t *tracer) start(name string, parent *span, step bool) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Step: step, tr: t}
	if parent != nil {
		s.Parent, s.Op = parent.ID, parent.Op
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	if parent == nil {
		s.Op = s.ID
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = int64(time.Since(t.t0))
	return s
}

// end closes the span; safe on nil.
func (s *span) end() {
	if s != nil {
		s.End = int64(time.Since(s.tr.t0))
	}
}

// durationsMs returns every closed span of one name, in milliseconds.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// selfMs returns, for every op span of one name that has at least one
// step, its duration minus its steps': the time the op spent in layers
// the harness has no call into (HTTP, JSON, validation, locks, caches).
func (t *tracer) selfMs(opName string) []float64 {
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Step {
			children[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if c, ok := children[s.ID]; ok && s.Name == opName {
			out = append(out, float64(s.End-s.Start-c)/1e6)
		}
	}
	return out
}

func (t *tracer) writeFile(path string, header reportHeader, run *runResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Header reportHeader `json:"header"`
		Run    *runResult   `json:"run"`
		Spans  []*span      `json:"spans"`
	}{header, run, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- counting filesystem ----

// fsCounts is what the store asked of the device.
type fsCounts struct {
	walBytes  int64 // written through append handles (the WAL)
	fileBytes int64 // written to created files (segments, manifests)
	syncs     int64
	dirSyncs  int64
	segments  int64 // segment files created
}

func (a fsCounts) minus(b fsCounts) fsCounts {
	return fsCounts{a.walBytes - b.walBytes, a.fileBytes - b.fileBytes, a.syncs - b.syncs, a.dirSyncs - b.dirSyncs, a.segments - b.segments}
}

// countingFS wraps the public store.FS and counts writes and syncs.
type countingFS struct {
	store.FS
	mu sync.Mutex
	n  fsCounts
}

func newCountingFS() *countingFS { return &countingFS{FS: store.DiskFS{}} }

func (c *countingFS) snapshot() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *countingFS) add(f func(*fsCounts)) {
	c.mu.Lock()
	f(&c.n)
	c.mu.Unlock()
}

type countingFile struct {
	store.File
	fs  *countingFS
	wal bool
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.add(func(c *fsCounts) {
		if f.wal {
			c.walBytes += int64(n)
		} else {
			c.fileBytes += int64(n)
		}
	})
	return n, err
}

func (f countingFile) Sync() error {
	f.fs.add(func(c *fsCounts) { c.syncs++ })
	return f.File.Sync()
}

func (c *countingFS) Create(path string) (store.File, error) {
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	if strings.Contains(path, ".capeseg") {
		c.add(func(n *fsCounts) { n.segments++ })
	}
	return countingFile{File: f, fs: c}, nil
}

func (c *countingFS) OpenAppend(path string) (store.File, error) {
	f, err := c.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c, wal: true}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	c.add(func(n *fsCounts) { n.dirSyncs++ })
	return c.FS.SyncDir(dir)
}
