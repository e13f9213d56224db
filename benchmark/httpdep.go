package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"cape/internal/httpc"
	"cape/internal/server"
	"cape/internal/store"
	"cape/internal/value"
)

// httpDeploy is a capeserver deployment on loopback: one server.Server
// with a durable store, or a server.Coordinator over shard servers that
// each have their own. Clients talk to front only.
type httpDeploy struct {
	front     string
	shardURLs []string // the servers behind front (front itself when unsharded)
	dataDirs  []string // one store directory per server
	client    *http.Client
	psID      string
	shardPS   []string // the shards' own pattern-set ids (sharded only)

	listeners []*httptest.Server
	servers   []*server.Server
}

// newHTTPDeploy starts the servers and loads the table from CSV through
// the front door, which bootstraps each server's durable store.
func newHTTPDeploy(workdir string, shards, flushRows int, csv []byte) (*httpDeploy, error) {
	d := &httpDeploy{client: httpc.NewClient(shards)}
	for i := 0; i < shards; i++ {
		srv := server.New()
		srv.DataDir = filepath.Join(workdir, fmt.Sprintf("data-%d", i))
		srv.StoreOptions = store.Options{Sync: store.SyncAlways, FlushEvery: flushRows}
		ts := httptest.NewServer(srv)
		d.servers = append(d.servers, srv)
		d.listeners = append(d.listeners, ts)
		d.shardURLs = append(d.shardURLs, ts.URL)
		d.dataDirs = append(d.dataDirs, filepath.Join(srv.DataDir, tableName))
	}
	d.front = d.shardURLs[0]
	if shards > 1 {
		coord, err := server.NewCoordinator(server.CoordConfig{
			Shards: d.shardURLs, Key: []string{shardKey}, Client: httpc.NewClient(shards),
		})
		if err != nil {
			d.close()
			return nil, err
		}
		ts := httptest.NewServer(coord)
		d.listeners = append(d.listeners, ts)
		d.front = ts.URL
	}
	status, body, _, err := d.do(http.MethodPost, d.front+"/v1/tables?name="+tableName, "text/csv", csv)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("load table: %w", err)
	}
	return d, nil
}

// do sends one request and returns the status, the whole body and the
// round-trip time (request written to body read).
func (d *httpDeploy) do(method, url, contentType string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(t0), err
}

func (d *httpDeploy) postJSON(url string, in interface{}) (int, []byte, time.Duration, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, nil, 0, err
	}
	return d.do(http.MethodPost, url, "application/json", body)
}

// mine posts the mining job to the front door and records the set id.
func (d *httpDeploy) mine() (patterns int, dur time.Duration, err error) {
	opt := mineOptions()
	status, body, dur, err := d.postJSON(d.front+"/v1/mine", server.MineRequest{
		Table:          tableName,
		Attributes:     opt.Attributes,
		MaxPatternSize: opt.MaxPatternSize,
		Theta:          opt.Thresholds.Theta,
		LocalSupport:   opt.Thresholds.LocalSupport,
		Lambda:         opt.Thresholds.Lambda,
		GlobalSupport:  opt.Thresholds.GlobalSupport,
		Aggregates:     []string{"count"},
	})
	if err != nil {
		return 0, 0, err
	}
	var out struct {
		ID       string   `json:"id"`
		Patterns int      `json:"patterns"`
		Shards   []string `json:"shards"`
	}
	if status != http.StatusCreated {
		return 0, 0, fmt.Errorf("mine: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, 0, err
	}
	d.psID, d.shardPS = out.ID, out.Shards
	return out.Patterns, dur, nil
}

// explainBody renders a question for POST /v1/explain against set id.
func explainBody(psID string, q question) []byte {
	b, err := json.Marshal(server.ExplainRequest{
		Patterns: psID, GroupBy: q.GroupBy, Tuple: q.tupleStrings(), Dir: q.Dir.String(), K: explainK,
	})
	if err != nil {
		panic(err) // strings and ints only
	}
	return b
}

// appendBody renders a batch for POST /v1/append, values kind-tagged so
// the server stores exactly the generated values.
func appendBody(rows []value.Tuple) []byte {
	b, err := json.Marshal(struct {
		Table string        `json:"table"`
		Rows  []value.Tuple `json:"rows"`
	}{tableName, rows})
	if err != nil {
		panic(err)
	}
	return b
}

// cacheCounters are one pattern set's answer-cache counters from GET /v1.
type cacheCounters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Entries   int    `json:"entries"`
	Evictions uint64 `json:"evictions"`
}

// tableState is one table's row in GET /v1.
type tableState struct {
	Name  string `json:"name"`
	Rows  int    `json:"rows"`
	Epoch uint64 `json:"epoch"`
}

// status reads GET /v1 of one server (or the coordinator): the served
// set's cache counters and the table's rows and epoch.
func (d *httpDeploy) status(url, psID string) (cacheCounters, tableState, error) {
	var cc cacheCounters
	var ts tableState
	code, body, _, err := d.do(http.MethodGet, url+"/v1", "", nil)
	if err != nil {
		return cc, ts, err
	}
	if code != http.StatusOK {
		return cc, ts, fmt.Errorf("GET /v1: status %d", code)
	}
	var out struct {
		Tables      []tableState `json:"tables"`
		PatternSets []struct {
			ID    string         `json:"id"`
			Cache *cacheCounters `json:"answerCache"`
		} `json:"patternSets"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return cc, ts, err
	}
	for _, ps := range out.PatternSets {
		if ps.ID == psID && ps.Cache != nil {
			cc = *ps.Cache
		}
	}
	for _, t := range out.Tables {
		if t.Name == tableName {
			ts = t
		}
	}
	return cc, ts, nil
}

// close stops the listeners and seals the stores.
func (d *httpDeploy) close() error {
	for i := len(d.listeners) - 1; i >= 0; i-- {
		d.listeners[i].Close()
	}
	var first error
	for _, srv := range d.servers {
		if err := srv.CloseStores(); err != nil && first == nil {
			first = err
		}
	}
	d.client.CloseIdleConnections()
	return first
}
