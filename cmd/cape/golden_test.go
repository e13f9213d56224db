package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cape/internal/pattern"
	"cape/internal/server"
)

// TestGoldenOneEncoder pins the CLI to the server's encoder. For every
// question of testdata/questions_running_example.jsonl, three outputs are
// byte-identical: `cape explain -json -parallel 1` in-process, the body of
// POST /v1/explain ("parallelism":1) from a server loaded with the same
// CSV and pattern file, and `cape explain -json -server` against that
// server. The same holds for `cape explain-batch -json` and POST
// /v1/explain/batch. Invalid questions compare their error bodies.
func TestGoldenOneEncoder(t *testing.T) {
	csv := writeExampleCSV(t)
	patterns := filepath.Join(t.TempDir(), "patterns.json")
	if _, err := captureStdout(t, func() error {
		return run("mine", []string{"-data", csv, "-o", patterns,
			"-theta", "0.5", "-localsupp", "3", "-lambda", "0.3", "-globalsupp", "2"})
	}); err != nil {
		t.Fatal(err)
	}
	mined, err := pattern.ReadJSONFile(patterns)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New()
	srv.AnswerCacheSize = -1 // every answer below is computed, none replayed
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	post := func(path, contentType string, body []byte) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	post("/v1/tables?name=pub", "text/csv", data)
	id, _ := srv.AddPatternSetEntry(&pattern.StoreEntry{Table: "pub", Patterns: mined})
	postJSON := func(path string, v interface{}) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return post(path, "application/json", b)
	}
	cli := func(verb string, args ...string) string {
		t.Helper()
		out, _ := captureStdout(t, func() error { return run(verb, args) })
		return out
	}

	questions := filepath.Join("..", "..", "testdata", "questions_running_example.jsonl")
	f, err := os.Open(questions)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var specs []server.QuestionSpec
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var q server.QuestionSpec
		if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, q)
	}
	answered := 0
	for i, q := range specs {
		flags := []string{"-groupby", strings.Join(q.GroupBy, ","), "-tuple", strings.Join(q.Tuple, ","),
			"-dir", q.Dir, "-json", "-parallel", "1"}
		want := postJSON("/v1/explain", server.ExplainRequest{
			Patterns: id, GroupBy: q.GroupBy, Tuple: q.Tuple, Dir: q.Dir, Parallelism: 1})
		local := cli("explain", append([]string{"-data", csv, "-patterns", patterns}, flags...)...)
		remote := cli("explain", append([]string{"-server", ts.URL, "-set", id}, flags...)...)
		if local != string(want) || remote != string(want) {
			t.Errorf("question %d: outputs differ\nPOST /v1/explain:\n%s\nin-process:\n%s\n-server:\n%s", i, want, local, remote)
		}
		if bytes.Contains(want, []byte(`"narration"`)) {
			answered++
		}
	}
	if answered == 0 {
		t.Fatal("no question produced explanations; the comparison is vacuous")
	}

	want := postJSON("/v1/explain/batch", server.ExplainBatchRequest{Patterns: id, Questions: specs, Parallelism: 1})
	local := cli("explain-batch", "-data", csv, "-patterns", patterns, "-questions", questions, "-json", "-parallel", "1")
	remote := cli("explain-batch", "-server", ts.URL, "-set", id, "-questions", questions, "-json", "-parallel", "1")
	if local != string(want) || remote != string(want) {
		t.Errorf("batch outputs differ\nPOST /v1/explain/batch:\n%s\nin-process:\n%s\n-server:\n%s", want, local, remote)
	}
}
