package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cape/internal/server"
)

// startSharded brings up a 2-shard deployment behind a coordinator; the
// commands must work against it through -server exactly as against a
// single node.
func startSharded(t *testing.T) string {
	t.Helper()
	s0 := httptest.NewServer(server.New())
	t.Cleanup(s0.Close)
	s1 := httptest.NewServer(server.New())
	t.Cleanup(s1.Close)
	coord, err := server.NewCoordinator(server.CoordConfig{
		Shards: []string{s0.URL, s1.URL}, Key: []string{"author"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	return cts.URL
}

func TestRemoteCommandsAgainstCoordinator(t *testing.T) {
	url := startSharded(t)
	csv := writeExampleCSV(t)

	msg, err := captureStdout(t, func() error {
		return run("load", []string{"-server", url, "-table", "pub", "-data", csv})
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !strings.Contains(msg, `"pub"`) {
		t.Errorf("load output = %q", msg)
	}

	msg, err = captureStdout(t, func() error {
		return run("mine", []string{"-server", url, "-table", "pub",
			"-psi", "3", "-theta", "0.5", "-localsupp", "3", "-lambda", "0.3", "-globalsupp", "2"})
	})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if !strings.Contains(msg, "mined pattern set ps-1") {
		t.Errorf("mine output = %q", msg)
	}

	msg, err = captureStdout(t, func() error {
		return run("explain", []string{"-server", url, "-set", "ps-1",
			"-groupby", "author,venue", "-tuple", "AX,ICDE", "-dir", "low"})
	})
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	if !strings.Contains(msg, "question:") {
		t.Errorf("explain output = %q", msg)
	}

	// Batch: one good question, one with an unknown tuple (per-item error).
	qfile := filepath.Join(t.TempDir(), "q.jsonl")
	lines := `{"groupBy":["author","venue"],"tuple":["AX","ICDE"],"dir":"low"}
{"groupBy":["author","venue"],"tuple":["NOBODY","ICDE"],"dir":"low"}
`
	if err := os.WriteFile(qfile, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	msg, err = captureStdout(t, func() error {
		return run("explain-batch", []string{"-server", url, "-set", "ps-1", "-questions", qfile})
	})
	if err != nil {
		t.Fatalf("explain-batch: %v", err)
	}
	if !strings.Contains(msg, "1/2 questions answered") {
		t.Errorf("batch output = %q", msg)
	}

	// Append routes by key and reports aggregate durability.
	rfile := filepath.Join(t.TempDir(), "rows.jsonl")
	rows := `["AX","ICDE",2005]
["BY","VLDB",2006]
`
	if err := os.WriteFile(rfile, []byte(rows), 0o644); err != nil {
		t.Fatal(err)
	}
	msg, err = captureStdout(t, func() error {
		return run("append", []string{"-server", url, "-table", "pub", "-rows", rfile, "-json"})
	})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	var aresp struct {
		Appended int  `json:"appended"`
		Durable  bool `json:"durable"`
	}
	if err := json.Unmarshal([]byte(msg), &aresp); err != nil {
		t.Fatalf("append output not JSON: %q", msg)
	}
	if aresp.Appended != 2 {
		t.Errorf("appended = %d, want 2", aresp.Appended)
	}

	msg, err = captureStdout(t, func() error {
		return run("status", []string{"-server", url})
	})
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if !strings.Contains(msg, `"coordinator"`) {
		t.Errorf("status output = %q", msg)
	}
}

func TestRemoteFlagValidation(t *testing.T) {
	if err := run("status", nil); err == nil {
		t.Error("status without -server should error")
	}
	if err := run("explain", []string{"-server", "http://x"}); err == nil {
		t.Error("explain -server without question flags should error")
	}
	if err := run("append", []string{"-server", "http://x"}); err == nil {
		t.Error("append -server without -table/-rows should error")
	}
}

// TestRemoteRetryOn429 pins the shed-retry contract of every command
// run with -server (here status): it honors Retry-After with bounded
// jittered backoff, succeeding once the server stops shedding and giving
// up with a descriptive error when it never does.
func TestRemoteRetryOn429(t *testing.T) {
	var slept []time.Duration
	origSleep := remoteSleep
	remoteSleep = func(d time.Duration) { slept = append(slept, d) }
	t.Cleanup(func() { remoteSleep = origSleep })

	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls++
		if calls <= 2 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true}`)
	}))
	t.Cleanup(ts.Close)

	var out struct {
		OK bool `json:"ok"`
	}
	msg, err := captureStdout(t, func() error { return run("status", []string{"-server", ts.URL}) })
	if err != nil {
		t.Fatalf("status after two sheds: %v", err)
	}
	if err := json.Unmarshal([]byte(msg), &out); err != nil {
		t.Fatalf("status output not JSON: %q", msg)
	}
	if !out.OK || calls != 3 {
		t.Fatalf("ok=%v calls=%d, want success on the third attempt", out.OK, calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	// Attempt 0 honors Retry-After 2s: jittered into [1s, 2s]. Attempt 1
	// doubles to 4s: jittered into [2s, 4s].
	if slept[0] < time.Second || slept[0] > 2*time.Second {
		t.Errorf("first backoff %v outside [1s, 2s]", slept[0])
	}
	if slept[1] < 2*time.Second || slept[1] > 4*time.Second {
		t.Errorf("second backoff %v outside [2s, 4s]", slept[1])
	}

	// A server that never stops shedding: bounded retries, then a 429
	// error that says how often it tried.
	calls = 0
	slept = nil
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls++
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}))
	t.Cleanup(always.Close)
	err = run("status", []string{"-server", always.URL})
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("exhausted retries should surface a 429 error, got %v", err)
	}
	if calls != remoteMaxRetries+1 {
		t.Errorf("server saw %d calls, want %d", calls, remoteMaxRetries+1)
	}
	for i, d := range slept {
		if d > remoteRetryCap {
			t.Errorf("backoff %d = %v exceeds cap %v", i, d, remoteRetryCap)
		}
	}
}
