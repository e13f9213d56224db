package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// inputHashes generates a workload's inputs the way setup does and
// returns their fingerprints.
func inputHashes(t *testing.T, seed int64) map[string]string {
	t.Helper()
	tab, tail, err := denseTable(seed, 3000, tailRows(6, 5, true))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3000 || len(tail) != tailRows(6, 5, true) {
		t.Fatalf("table has %d rows and the tail %d", tab.NumRows(), len(tail))
	}
	ih := newInputHasher()
	ih.rows(tab.Rows())
	qs, err := questionPool(tab, shapes4, 40, seed)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := appendBatches(seed, tail, 6, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := appendBatches(seed, tail, 6, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range keyed {
		for _, row := range b {
			if row[1].Int() != b[0][1].Int() {
				t.Fatalf("keyed batch %d mixes communities", i)
			}
		}
	}
	return map[string]string{
		"table":     ih.sum(),
		"questions": hashQuestions(qs, zipfPicks(50, 40, 1.1)),
		"appends":   hashBatches(batches),
		"keyed":     hashBatches(keyed),
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a, again, b := inputHashes(t, 1), inputHashes(t, 1), inputHashes(t, 2)
	for name := range a {
		if a[name] != again[name] {
			t.Errorf("%s: same seed gave different inputs: %s vs %s", name, a[name], again[name])
		}
		if a[name] == b[name] {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

func TestQuestionPoolDistinct(t *testing.T) {
	tab, _, err := denseTable(1, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := questionPool(tab, shapesKeyed, 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, q := range qs {
		key := q.Values.Key() + "|" + q.GroupBy[0] + string(rune(len(q.GroupBy)))
		if seen[key] {
			t.Fatalf("question %v over %v drawn twice", q.Values, q.GroupBy)
		}
		seen[key] = true
	}
	if _, err := questionPool(tab, [][]string{{"district"}}, 50, 1); err == nil {
		t.Error("a pool larger than the shapes' groups must fail, not repeat questions")
	}
}

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0.5}, {99, 0.5}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {20000, 0.99}} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "explain_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "goodput_per_s", Better: "higher", Bound: 0.07}
	for _, c := range []struct {
		def                 metricDef
		base, other, spread float64
		want                string
	}{
		{lower, 10, 10.9, 0.02, "ok"},
		{lower, 10, 11.2, 0.02, "worse"},
		{lower, 10, 8, 0.02, "ok"},
		{lower, 10, 10.5, 0.15, "unresolved"},
		{higher, 100, 94, 0.01, "ok"},
		{higher, 100, 92, 0.01, "worse"},
		{higher, 100, 120, 0.01, "ok"},
		{metricDef{Better: "higher", Bound: 0}, 1, 1, 0, "ok"},
		{metricDef{Better: "higher", Bound: 0}, 1, 0.999, 0, "worse"},
	} {
		if _, got := verdict(c.def, c.base, c.other, c.spread); got != c.want {
			t.Errorf("%s %v→%v spread %v: %s, want %s", c.def.Better, c.base, c.other, c.spread, got, c.want)
		}
	}
}

// tinyRun is one workload lifecycle at smoke sizes, in this process.
func tinyRun(t *testing.T, workload string, trace bool) *runResult {
	t.Helper()
	cfg := runConfig{
		Workload: workload, Seed: 1, Seconds: frozenSeconds, Tiny: true, Trace: trace,
		Workdir: filepath.Join(t.TempDir(), "work"), SpawnedNs: time.Now().UnixNano(),
	}
	if trace {
		cfg.TraceFile = filepath.Join(t.TempDir(), "trace.json")
	}
	res, err := runChild(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d notes=%v", workload, res.Correct, res.Failed, res.Notes)
	}
	return res
}

// TestTinyLifecycles runs all four workloads end to end at smoke sizes:
// every end-to-end metric must come with its own samples, and no two
// may be the same number in different units (what a metric copied from
// another looks like).
func TestTinyLifecycles(t *testing.T) {
	for _, w := range workloads {
		res := tinyRun(t, w.name, false)
		mergeSetups(res, []float64{res.SetupS}, res.MineS)
		for _, def := range endToEnd {
			m, ok := res.Metrics[def.Name]
			if !ok || m.N < 1 || m.Value <= 0 || m.Unit != def.Unit {
				t.Errorf("%s: %s = %+v (present %v): want a positive value in %s from ≥ 1 samples", w.name, def.Name, m, ok, def.Unit)
			}
		}
		if got := res.Metrics["ok_ratio"].Value; got != 1 {
			t.Errorf("%s: ok_ratio = %v, want 1", w.name, got)
		}
		if want := w.tiny.Explains + w.tiny.Appends; res.Attempted != want {
			t.Errorf("%s: attempted %d ops, the plan has %d", w.name, res.Attempted, want)
		}
		for i, a := range endToEnd {
			for _, b := range endToEnd[i+1:] {
				va, vb := res.Metrics[a.Name].Value, res.Metrics[b.Name].Value
				for _, k := range []float64{1, 1e3, 1e-3} {
					if va == vb*k {
						t.Errorf("%s: %s = %v is %s × %v", w.name, a.Name, va, b.Name, k)
					}
				}
			}
		}
		line := res.driverLine()
		var out struct {
			Correct   bool
			Attempted int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &out); err != nil || !out.Correct || len(out.Metrics) != len(endToEnd) {
			t.Errorf("%s: driver line %s (err %v)", w.name, line, err)
		}
	}
}

// TestTinyTraced runs the library workload and the sharded one traced:
// every per-layer metric BENCHMARK.json lists must be measured on both,
// the HTTP tiers' own metrics on the sharded one, and the trace file
// must link every span to a recorded parent.
func TestTinyTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced lifecycles are not short")
	}
	for _, name := range []string{"mine_scale", "serve_hot_sharded"} {
		res := tinyRun(t, name, true)
		for _, def := range perLayer {
			if m, ok := res.Metrics[def.Name]; !ok || m.N < 1 || m.Unit != def.Unit {
				t.Errorf("%s: %s = %+v (present %v): want a value in %s from ≥ 1 samples", name, def.Name, m, ok, def.Unit)
			}
		}
		if name == "serve_hot_sharded" {
			for _, extra := range []string{
				"coord.hit_http_ms", "coord.miss_http_ms", "coord.fanout_overhead_ms", "coord.anscache_hit_ratio",
				"coord.invalidated_share", "coord.shed", "server.explain_http_ms", "server.append_http_ms",
				"server.append_overhead_ms", "server.mine_overhead_s", "server.resp_bytes_p50",
			} {
				if m, ok := res.Metrics[extra]; !ok || m.N < 1 {
					t.Errorf("%s: %s missing or without samples: %+v", name, extra, m)
				}
			}
		}
		raw, err := os.ReadFile(res.Config.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatal(err)
		}
		ids := map[int]string{}
		for _, s := range tf.Spans {
			ids[s.ID] = s.Name
		}
		children := 0
		for _, s := range tf.Spans {
			if s.End < s.Start {
				t.Errorf("%s: span %d (%s) ends before it starts", name, s.ID, s.Name)
			}
			if s.Parent == 0 {
				continue
			}
			children++
			if p := ids[s.Parent]; p != spanOpExplain && p != spanOpAppend {
				t.Errorf("%s: span %d (%s) has parent %d (%q), want an op span", name, s.ID, s.Name, s.Parent, p)
			}
		}
		if children == 0 {
			t.Errorf("%s: trace has no layer spans under its ops", name)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the names this package
// reports: the driver refuses a result that lacks a listed metric.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != frozenSeconds {
		t.Errorf("run_seconds = %d, the frozen counts are sized for %d", f.RunSeconds, frozenSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d implemented", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the package has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, listed, have []metricDef) {
		if len(listed) != len(have) {
			t.Errorf("%s: %d metrics listed, %d reported", kind, len(listed), len(have))
			return
		}
		for i, d := range listed {
			if d.Name != have[i].Name || d.Unit != have[i].Unit || d.Better != have[i].Better {
				t.Errorf("%s metric %d is %+v, the package reports %+v", kind, i, d, have[i])
			}
			if d.Bound < 0 || d.Bound > 0.25 {
				t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}
