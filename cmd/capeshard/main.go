// Command capeshard fronts a sharded CAPE deployment: N shard
// capeservers each hold one hash partition of every table (by the
// shard-key attribute set), and this coordinator presents them as one
// /v1 API — each explain routed to the shard that owns the question's
// group and answered with that shard's response verbatim, keyed append
// routing with aggregate durability, global pattern admission, and load
// shedding under overload. See DESIGN.md §15 and the README "sharded deployment"
// quickstart.
//
// Usage:
//
//	capeshard -shards http://h1:8081,http://h2:8082 -key author,venue
//	          [-addr :8080] [-load name=path.csv ...]
//	          [-shard-timeout 60s] [-max-inflight n] [-max-queue n]
//
// The shard list order is the hash ring: keep it identical across
// coordinator restarts or routing will disagree with data placement.
// -load reads a CSV, partitions it by the key, and pushes one partition
// to each shard.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cape/internal/httpc"
	"cape/internal/server"
)

type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.String("shards", "", "comma-separated shard base URLs (required; order is the hash ring)")
	key := flag.String("key", "", "comma-separated shard-key attributes (required)")
	shardTimeout := flag.Duration("shard-timeout", 60*time.Second, "per-shard request deadline")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent outgoing shard requests (0 = 4x shard count)")
	maxQueue := flag.Int("max-queue", 0, "explain admission limit before shedding 429 (0 = 256)")
	ansCache := flag.Int("anscache", 0,
		"coordinator answer-cache entries per pattern set (0 = default 4096, negative disables)")
	var loads loadFlags
	flag.Var(&loads, "load", "load and partition a table as name=path.csv (repeatable)")
	flag.Parse()

	shardURLs := splitNonEmpty(*shards)
	keyAttrs := splitNonEmpty(*key)
	if len(shardURLs) == 0 || len(keyAttrs) == 0 {
		log.Fatal("capeshard: -shards and -key are required")
	}
	coord, err := server.NewCoordinator(server.CoordConfig{
		Shards:          shardURLs,
		Key:             keyAttrs,
		ShardTimeout:    *shardTimeout,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		AnswerCacheSize: *ansCache,
		Client:          httpc.NewClient(len(shardURLs)),
	})
	if err != nil {
		log.Fatalf("capeshard: %v", err)
	}

	// -load goes through the coordinator's own handler so the partition
	// + push path is exactly what a client POST would get.
	for _, spec := range loads {
		eq := strings.IndexByte(spec, '=')
		if eq <= 0 {
			log.Fatalf("capeshard: bad -load %q (want name=path.csv)", spec)
		}
		name, path := spec[:eq], spec[eq+1:]
		csv, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("capeshard: loading %s: %v", path, err)
		}
		if err := loadViaHandler(coord, name, csv); err != nil {
			log.Fatalf("capeshard: loading %s: %v", path, err)
		}
		fmt.Printf("partitioned %s across %d shards by key %v\n", name, len(shardURLs), keyAttrs)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Addr: *addr, Handler: coord}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("capeshard coordinating %d shards on %s (key %v)\n", len(shardURLs), *addr, keyAttrs)
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(shutCtx)
	fmt.Println("capeshard: bye")
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// loadViaHandler POSTs a CSV to the coordinator handler in-process.
func loadViaHandler(coord *server.Coordinator, name string, csv []byte) error {
	req, err := http.NewRequest(http.MethodPost, "/v1/tables?name="+name, bytes.NewReader(csv))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/csv")
	rec := newRecorder()
	coord.ServeHTTP(rec, req)
	if rec.status != http.StatusCreated {
		return fmt.Errorf("status %d: %s", rec.status, strings.TrimSpace(rec.body.String()))
	}
	return nil
}

// recorder is a minimal in-process ResponseWriter (no httptest in main).
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: make(http.Header), status: http.StatusOK} }

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(s int)   { r.status = s }
func (r *recorder) Write(b []byte) (int, error) {
	return r.body.Write(b)
}

var _ io.Writer = (*recorder)(nil)
