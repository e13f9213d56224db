package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
)

// exactCounts are the numbers that must repeat exactly between two runs
// with the same seed, per workload ("" = every workload): inputs and op
// counts are fixed, appends are issued in order by one client, and the
// library workload has a single client with sequential generation.
var exactCounts = map[string][]string{
	"": {"disk_bytes_per_row", "mining.candidates", "mining.patterns"},
	"mine_scale": {
		"explain.relevant_patterns", "explain.refinement_pairs", "explain.candidates",
		"explain.pruned_share", "explain.cached_groupings",
	},
}

// boundsFile holds the bounds a verdict uses; -compare runs from the
// repository root, like the benchmark itself.
const boundsFile = "BENCHMARK.json"

// loadBounds reads the end-to-end metric definitions, with bounds, from
// BENCHMARK.json.
func loadBounds() (map[string]metricDef, error) {
	b, err := os.ReadFile(boundsFile)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", boundsFile, err)
	}
	out := make(map[string]metricDef, len(f.EndToEnd))
	for _, d := range f.EndToEnd {
		out[d.Name] = d
	}
	return out, nil
}

// comparable refuses two reports whose numbers cannot be set side by
// side: different box, toolchain, run length, sizes or fsync policy.
// The commit may differ; that is what a comparison is for.
func comparable(a, b reportHeader) error {
	a.Commit, b.Commit = "", ""
	if !reflect.DeepEqual(a, b) {
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		return fmt.Errorf("reports are not comparable:\n a: %s\n b: %s", ja, jb)
	}
	return nil
}

// verdict judges one workload × metric pair: base and other are the
// medians over each report's runs, worsening is how far other is on the
// wrong side of base as a share of base.
func verdict(def metricDef, base, other, spread float64) (ratio float64, v string) {
	if base == 0 {
		return 0, "unresolved"
	}
	ratio = other / base
	worsening := ratio - 1
	if def.Better == "higher" {
		worsening = 1 - ratio
	}
	switch {
	case worsening > def.Bound+1e-12:
		return ratio, "worse"
	case spread > def.Bound && def.Bound > 0:
		return ratio, "unresolved"
	default:
		return ratio, "ok"
	}
}

func compareMain(pathA, pathB string) int {
	refuse := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchmark -compare: %v\n", err)
		return 2
	}
	a, err := readReport(pathA)
	if err != nil {
		return refuse(err)
	}
	b, err := readReport(pathB)
	if err != nil {
		return refuse(err)
	}
	bounds, err := loadBounds()
	if err != nil {
		return refuse(err)
	}
	if err := comparable(a.Header, b.Header); err != nil {
		return refuse(err)
	}
	return compareReports(a, b, bounds)
}

func compareReports(a, b *report, bounds map[string]metricDef) int {
	values := func(r *report, workload, name string) []float64 {
		var out []float64
		for _, run := range r.Runs {
			if m, ok := run.Metrics[name]; ok && run.Config.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	worse := 0
	fmt.Printf("%-18s %-20s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := values(a, w.name, def.Name), values(b, w.name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			def.Bound = bounds[def.Name].Bound
			spread := quartileSpread(va)
			if s := quartileSpread(vb); s > spread {
				spread = s
			}
			ratio, v := verdict(def, median(va), median(vb), spread)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-18s %-20s %14.6g %14.6g %8.4f %8.4f %8.2f  %s\n",
				w.name, def.Name, median(va), median(vb), ratio, spread, def.Bound, v)
		}
	}

	// Counts that must repeat exactly, run against run at equal seeds.
	differ := 0
	type key struct {
		workload string
		seed     int64
	}
	byKey := make(map[key]*runResult)
	for _, run := range a.Runs {
		byKey[key{run.Config.Workload, run.Config.Seed}] = run
	}
	var lines []string
	for _, rb := range b.Runs {
		ra, ok := byKey[key{rb.Config.Workload, rb.Config.Seed}]
		if !ok {
			continue
		}
		check := func(name string, x, y float64) {
			state := "same"
			if x != y {
				state = "DIFFERS"
				differ++
			}
			lines = append(lines, fmt.Sprintf("%-18s seed=%-3d %-28s %14.10g %14.10g  %s", rb.Config.Workload, rb.Config.Seed, name, x, y, state))
		}
		check("attempted", float64(ra.Attempted), float64(rb.Attempted))
		for _, h := range []string{"table", "questions", "appends"} {
			if ra.Hashes[h] != rb.Hashes[h] {
				differ++
				lines = append(lines, fmt.Sprintf("%-18s seed=%-3d input hash %q DIFFERS", rb.Config.Workload, rb.Config.Seed, h))
			}
		}
		for _, name := range append(append([]string(nil), exactCounts[""]...), exactCounts[rb.Config.Workload]...) {
			ma, oka := ra.Metrics[name]
			mb, okb := rb.Metrics[name]
			if oka && okb {
				check(name, ma.Value, mb.Value)
			}
		}
	}
	sort.Strings(lines)
	fmt.Println("\ncounts that must repeat exactly at equal seeds:")
	for _, l := range lines {
		fmt.Println(" " + l)
	}
	fmt.Printf("\n%d worse, %d exact counts differ\n", worse, differ)
	if worse > 0 || differ > 0 {
		return 1
	}
	return 0
}
