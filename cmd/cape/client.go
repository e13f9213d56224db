package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cape/internal/httpc"
	"cape/internal/server"
)

// A shed request (429) is retried with bounded, jittered backoff, so a
// scripted loop of cape calls rides out a load spike instead of failing,
// without hammering a coordinator that just told everyone to back off.
const (
	remoteMaxRetries = 4
	remoteRetryCap   = 5 * time.Second
)

// remoteSleep is swappable in tests so retry behavior is assertable
// without real waiting.
var remoteSleep = time.Sleep

// retryDelay computes the wait before retry `attempt` (0-based): the
// Retry-After hint (default 1s when absent or unparseable) doubled per
// attempt, capped, then jittered into [delay/2, delay] so a fleet of
// shed clients does not return in one synchronized wave.
func retryDelay(retryAfter string, attempt int) time.Duration {
	base := time.Second
	if s, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && s > 0 {
		base = time.Duration(s) * time.Second
	}
	delay := min(base<<attempt, remoteRetryCap)
	half := delay / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// client sends a command's requests to a running server or to an
// in-process one (srv; nil against -server).
type client struct {
	base string
	hc   *http.Client
	srv  *server.Server
}

// remote is a client of a running server over httpc.Default, the shared
// keep-alive transport, so a scripted loop of questions reuses a few
// warm connections.
func remote(base string) *client {
	return &client{base: strings.TrimSuffix(base, "/"), hc: httpc.Default}
}

// inProcess is an http.RoundTripper that answers every request from an
// in-process handler, without a listener.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	defer req.Body.Close()
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req.Clone(req.Context()))
	return rec.Result(), nil
}

// send issues one request and returns the response body, which a
// non-2xx answer returns too, beside its error. A 429 is retried per
// retryDelay up to remoteMaxRetries times.
func (c *client) send(method, path, contentType string, body []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return nil, err
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			return raw, nil
		case resp.StatusCode == http.StatusTooManyRequests && attempt < remoteMaxRetries:
			remoteSleep(retryDelay(resp.Header.Get("Retry-After"), attempt))
			continue
		}
		msg := strings.TrimSpace(string(raw))
		var e struct{ Error string }
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			return raw, fmt.Errorf("server shed the request (429, Retry-After %s) %d times: %s",
				resp.Header.Get("Retry-After"), attempt+1, msg)
		}
		return raw, fmt.Errorf("server returned %d: %s", resp.StatusCode, msg)
	}
}

// call POSTs req as JSON and decodes a successful answer into out (when
// non-nil); the body comes back either way.
func (c *client) call(path string, req, out interface{}) ([]byte, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	body, err := c.send(http.MethodPost, path, "application/json", b)
	if err == nil && out != nil {
		err = json.Unmarshal(body, out)
	}
	return body, err
}

// load uploads a CSV file as a server-side table.
func (c *client) load(table, path string) ([]byte, error) {
	csv, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return c.send(http.MethodPost, "/v1/tables?name="+url.QueryEscape(table), "text/csv", csv)
}

// target holds the flags every serving command shares: where its
// requests go and how it prints the answer.
type target struct {
	server, data, table *string
	json                *bool
}

func targetFlags(fs *flag.FlagSet) *target {
	return &target{
		server: fs.String("server", "", "base URL of a running capeserver or capeshard coordinator (default: an in-process server)"),
		data:   fs.String("data", "", "CSV dataset loaded into the in-process server as table -table"),
		table:  fs.String("table", "", "server-side table (default with -data: the file name without extension)"),
		json:   fs.Bool("json", false, "print the server's JSON response body verbatim"),
	}
}

// open returns the command's client. With -server it refuses -data and
// the in-process-only flags named in localOnly, and requires -table if
// needTable. Without it, it starts an in-process server and
// loads -data into it as table -table.
func (t *target) open(fs *flag.FlagSet, needTable bool, localOnly ...string) (*client, error) {
	if *t.server != "" {
		for _, n := range append(localOnly, "data") {
			if f := fs.Lookup(n); f != nil && f.Value.String() != f.DefValue {
				return nil, fmt.Errorf("-%s works only in-process, not with -server", n)
			}
		}
		if needTable && *t.table == "" {
			return nil, fmt.Errorf("-table is required with -server")
		}
		return remote(*t.server), nil
	}
	if *t.data == "" {
		return nil, fmt.Errorf("-data (or -server) is required")
	}
	if *t.table == "" {
		*t.table = strings.TrimSuffix(filepath.Base(*t.data), filepath.Ext(*t.data))
	}
	srv := server.New()
	c := &client{base: "http://cape", hc: &http.Client{Transport: inProcess{srv}}, srv: srv}
	_, err := c.load(*t.table, *t.data)
	return c, err
}

// emit prints an answer: under -json the response body verbatim — a
// non-2xx one too, whose err is still returned — and otherwise, on
// success, the command's rendering of it.
func (t *target) emit(body []byte, err error, render func() error) error {
	if *t.json && body != nil {
		_, werr := os.Stdout.Write(body)
		return errors.Join(err, werr)
	}
	if err != nil {
		return err
	}
	return render()
}

// statusVerb prints GET /v1 of a running server — on a coordinator
// this includes the per-shard health and the diverged list.
func statusVerb(fs *flag.FlagSet) func() error {
	srv := fs.String("server", "", "base URL of a running capeserver or capeshard coordinator (required)")
	return func() error {
		if *srv == "" {
			return fmt.Errorf("-server is required")
		}
		return printBody(remote(*srv).send(http.MethodGet, "/v1", "", nil))
	}
}

// loadVerb uploads a CSV as a table of a running server; a coordinator
// partitions it across its shards by the deployment key.
func loadVerb(fs *flag.FlagSet) func() error {
	srv := fs.String("server", "", "base URL of a running capeserver or capeshard coordinator (required)")
	data := fs.String("data", "", "CSV file to upload (required)")
	table := fs.String("table", "", "table name on the server (required)")
	return func() error {
		if *srv == "" || *data == "" || *table == "" {
			return fmt.Errorf("-server, -data and -table are required")
		}
		return printBody(remote(*srv).load(*table, *data))
	}
}

func printBody(body []byte, err error) error {
	if err == nil {
		_, err = os.Stdout.Write(body)
	}
	return err
}

// readJSONL calls each with every non-blank line of a JSONL file
// ('-' = stdin) and its line number, stopping at the first error.
func readJSONL(path string, each func(line int, raw []byte) error) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if raw := bytes.TrimSpace(sc.Bytes()); len(raw) > 0 {
			if err := each(line, raw); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

// readRawJSONLRows reads rows as raw JSON arrays — the server does the
// value parsing, so the CLI only validates the line shape.
func readRawJSONLRows(path string) (rows [][]json.RawMessage, err error) {
	err = readJSONL(path, func(line int, raw []byte) error {
		var row []json.RawMessage
		if err := json.Unmarshal(raw, &row); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		rows = append(rows, row)
		return nil
	})
	return rows, err
}
