package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cape/internal/dataset"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed; stderr is captured and dropped.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	out, _, err := captureOutput(t, fn)
	return out, err
}

// captureOutput runs fn with os.Stdout and os.Stderr redirected and
// returns what it printed to each.
func captureOutput(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	outR, outW, perr := os.Pipe()
	if perr != nil {
		t.Fatal(perr)
	}
	errR, errW, perr := os.Pipe()
	if perr != nil {
		t.Fatal(perr)
	}
	os.Stdout, os.Stderr = outW, errW
	defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()

	var outBuf, errBuf bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); outBuf.ReadFrom(outR) }()
	go func() { defer wg.Done(); errBuf.ReadFrom(errR) }()
	err = fn()
	outW.Close()
	errW.Close()
	wg.Wait()
	return outBuf.String(), errBuf.String(), err
}

// writeExampleCSV materializes the running example for CLI tests.
func writeExampleCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pub.csv")
	if err := dataset.RunningExample().WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdGenerate(t *testing.T) {
	out := filepath.Join(t.TempDir(), "dblp.csv")
	msg, err := captureStdout(t, func() error {
		return run("generate", []string{"-dataset", "dblp", "-rows", "500", "-o", out})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "500 rows") {
		t.Errorf("output = %q", msg)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("output file missing: %v", err)
	}

	if _, err := captureStdout(t, func() error {
		return run("generate", []string{"-dataset", "bogus"})
	}); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestCmdGenerateCrimeToStdout(t *testing.T) {
	msg, err := captureStdout(t, func() error {
		return run("generate", []string{"-dataset", "crime", "-rows", "50", "-attrs", "5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(msg, "type,community,year,month,district") {
		t.Errorf("CSV header = %q", strings.SplitN(msg, "\n", 2)[0])
	}
}

func TestCmdMineAndExplainWithSavedPatterns(t *testing.T) {
	csv := writeExampleCSV(t)
	patterns := filepath.Join(t.TempDir(), "patterns.json")

	mineOut, err := captureStdout(t, func() error {
		return run("mine", []string{
			"-data", csv, "-o", patterns,
			"-theta", "0.5", "-localsupp", "3", "-lambda", "0.3", "-globalsupp", "2",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mineOut, "mined") || !strings.Contains(mineOut, "patterns") {
		t.Errorf("mine output = %q", mineOut)
	}
	if _, err := os.Stat(patterns); err != nil {
		t.Fatalf("patterns file missing: %v", err)
	}

	explainOut, err := captureStdout(t, func() error {
		return run("explain", []string{
			"-data", csv, "-patterns", patterns,
			"-groupby", "author,venue,year", "-tuple", "AX,SIGKDD,2007",
			"-dir", "low", "-k", "5", "-numeric", "year=4",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explainOut, "ICDE") {
		t.Errorf("explain output missing the counterbalance:\n%s", explainOut)
	}
}

func TestCmdExplainOnTheFlyWithSQLQuestion(t *testing.T) {
	csv := writeExampleCSV(t)
	out, status, err := captureOutput(t, func() error {
		return run("explain", []string{
			"-data", csv,
			"-query", "SELECT author, venue, year, count(*) FROM pub GROUP BY author, venue, year",
			"-tuple", "AX,SIGKDD,2007", "-dir", "low", "-k", "3",
			"-theta", "0.5", "-localsupp", "3", "-lambda", "0.3", "-globalsupp", "2",
			"-numeric", "year=4",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "mined") || !strings.Contains(out, "ICDE") {
		t.Errorf("explain -query output:\n%s\nstderr:\n%s", out, status)
	}
}

func TestCmdExplainErrors(t *testing.T) {
	csv := writeExampleCSV(t)
	cases := [][]string{
		{},             // no data
		{"-data", csv}, // no question
		{"-data", csv, "-groupby", "author", "-tuple", "AX,extra"},                 // arity
		{"-data", csv, "-groupby", "author,venue,year", "-tuple", "NOBODY,X,1900"}, // not a result
		{"-data", csv, "-groupby", "author", "-tuple", "AX", "-dir", "sideways"},
		{"-data", csv, "-query", "SELECT broken", "-tuple", "AX"},
		{"-data", "/nonexistent.csv", "-groupby", "a", "-tuple", "x"},
		{"-data", csv, "-groupby", "author", "-tuple", "AX", "-numeric", "year"},
		{"-data", csv, "-groupby", "author", "-tuple", "AX", "-numeric", "year=zero"},
		{"-data", csv, "-patterns", "/nonexistent.json", "-groupby", "author", "-tuple", "AX"},
	}
	for i, args := range cases {
		if _, err := captureStdout(t, func() error { return run("explain", args) }); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestCmdMineErrors(t *testing.T) {
	if _, err := captureStdout(t, func() error { return run("mine", nil) }); err == nil {
		t.Error("missing -data should error")
	}
}

func TestParseMetricHelper(t *testing.T) {
	m, err := parseNumeric("year=4,community=2")
	if err != nil || m["year"] != 4 || m["community"] != 2 {
		t.Fatalf("parseNumeric = %v, %v", m, err)
	}
	if _, err := parseNumeric("year"); err == nil {
		t.Error("missing = should error")
	}
	if _, err := parseNumeric("year=-3"); err == nil {
		t.Error("negative scale should error")
	}
	if m, err := parseNumeric(""); err != nil || len(m) != 0 {
		t.Error("empty spec should yield no scales")
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("splitList = %v", got)
	}
	if len(splitList("")) != 0 {
		t.Error("empty input should yield no entries")
	}
}

func TestCmdExplainJSONOutput(t *testing.T) {
	csv := writeExampleCSV(t)
	out, err := captureStdout(t, func() error {
		return run("explain", []string{
			"-data", csv, "-json",
			"-groupby", "author,venue,year", "-tuple", "AX,SIGKDD,2007",
			"-dir", "low", "-k", "2",
			"-theta", "0.5", "-localsupp", "3", "-lambda", "0.3", "-globalsupp", "2",
			"-numeric", "year=4",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Question     string `json:"question"`
		Explanations []struct {
			Score     float64 `json:"score"`
			Narration string  `json:"narration"`
		} `json:"explanations"`
	}
	// Skip the "mined N patterns" line printed before the JSON body.
	idx := strings.IndexByte(out, '{')
	if idx < 0 {
		t.Fatalf("no JSON in output:\n%s", out)
	}
	if err := json.Unmarshal([]byte(out[idx:]), &parsed); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(parsed.Explanations) != 2 || parsed.Explanations[0].Score <= 0 || parsed.Explanations[0].Narration == "" {
		t.Errorf("parsed = %+v", parsed)
	}
}

// writeQuestionsJSONL materializes a question file with valid, invalid,
// and malformed lines to exercise the per-item error path.
func writeQuestionsJSONL(t *testing.T, lines []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "questions.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdExplainBatch(t *testing.T) {
	csv := writeExampleCSV(t)
	questions := writeQuestionsJSONL(t, []string{
		`{"groupBy":["author","venue","year"],"tuple":["AX","SIGKDD","2007"],"dir":"low"}`,
		``, // blank lines are skipped
		`{"groupBy":["author","venue","year"],"tuple":["AX","ICDE","2007"],"dir":"high"}`,
		`{"groupBy":["author"],"tuple":["AX","extra"],"dir":"low"}`, // arity error
		`{not json`, // malformed line
	})
	out, err := captureStdout(t, func() error {
		return run("explain-batch", []string{
			"-data", csv, "-questions", questions, "-k", "3",
			"-theta", "0.5", "-localsupp", "3", "-lambda", "0.3", "-globalsupp", "2",
			"-numeric", "year=4",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2/4 questions answered") {
		t.Errorf("summary line missing:\n%s", out)
	}
	if !strings.Contains(out, "ICDE") {
		t.Errorf("batch output missing the counterbalance:\n%s", out)
	}
	if !strings.Contains(out, "[2] error:") || !strings.Contains(out, "[3] error: line 5") {
		t.Errorf("per-item errors missing:\n%s", out)
	}
}

func TestCmdExplainBatchJSON(t *testing.T) {
	csv := writeExampleCSV(t)
	questions := writeQuestionsJSONL(t, []string{
		`{"groupBy":["author","venue","year"],"tuple":["AX","SIGKDD","2007"],"dir":"low"}`,
		`{"groupBy":["author","venue","year"],"tuple":["AX","SIGKDD","2007"],"dir":"sideways"}`,
	})
	out, err := captureStdout(t, func() error {
		return run("explain-batch", []string{
			"-data", csv, "-questions", questions, "-k", "2", "-json",
			"-theta", "0.5", "-localsupp", "3", "-lambda", "0.3", "-globalsupp", "2",
			"-numeric", "year=4",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Items []struct {
			Index        int    `json:"index"`
			Question     string `json:"question"`
			Error        string `json:"error"`
			Explanations []struct {
				Narration string `json:"narration"`
			} `json:"explanations"`
		} `json:"items"`
	}
	if err := json.Unmarshal([]byte(out), &envelope); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	parsed := envelope.Items
	if len(parsed) != 2 {
		t.Fatalf("items = %d", len(parsed))
	}
	if len(parsed[0].Explanations) != 2 || parsed[0].Error != "" || parsed[0].Explanations[0].Narration == "" {
		t.Errorf("item 0 = %+v", parsed[0])
	}
	if parsed[1].Error == "" || len(parsed[1].Explanations) != 0 {
		t.Errorf("item 1 should carry the bad-dir error: %+v", parsed[1])
	}
}

func TestCmdExplainBatchErrors(t *testing.T) {
	csv := writeExampleCSV(t)
	cases := [][]string{
		{},             // no data
		{"-data", csv}, // no questions file
		{"-data", csv, "-questions", "/nonexistent.jsonl"},
		{"-data", "/nonexistent.csv", "-questions", "/nonexistent.jsonl"},
		{"-data", csv, "-questions", csv, "-numeric", "year"}, // bad metric
		{"-data", csv, "-questions", csv, "-patterns", "/nonexistent.json"},
	}
	for i, args := range cases {
		if _, err := captureStdout(t, func() error { return run("explain-batch", args) }); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// run parses args into the named command's flags and runs it, as main
// does.
func run(name string, args []string) error {
	exec, err := command(name, args)
	if err != nil {
		return err
	}
	return exec()
}
