package exp

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"slices"
	"strings"
	"testing"
	"time"

	"cape/internal/dataset"
	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/regress"
	"cape/internal/value"
)

func TestFindSites(t *testing.T) {
	tab := studyCrime(10000, 12)
	mined, err := mining.ARPMine(tab, studyMining(studyThresholds))
	if err != nil {
		t.Fatal(err)
	}
	sites, err := FindSites(tab, studySpec, mined.Patterns, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) == 0 {
		t.Fatal("no injection sites found")
	}
	for _, s := range sites {
		// Outlier and counter share community and year, differ in type.
		if !value.Equal(s.Outlier[1], s.Counter[1]) || !value.Equal(s.Outlier[2], s.Counter[2]) {
			t.Errorf("site must share frag/pred values: %v / %v", s.Outlier, s.Counter)
		}
		if value.Equal(s.Outlier[0], s.Counter[0]) {
			t.Errorf("site must differ in type: %v / %v", s.Outlier, s.Counter)
		}
	}
}

func TestFindSitesMissingPatterns(t *testing.T) {
	tab := dataset.GenerateCrime(dataset.CrimeConfig{Rows: 1000, Seed: 7, NumAttrs: 5})
	if _, err := FindSites(tab, studySpec, nil, 5); err == nil {
		t.Error("missing required patterns should error")
	}
}

func TestCovers(t *testing.T) {
	qAttrs := []string{"type", "community", "year"}
	gt := value.Tuple{value.NewString("Theft"), value.NewInt(12), value.NewInt(2007)}
	p := pattern.Pattern{F: []string{"community", "type"}, V: []string{"year"},
		Agg: engine.AggSpec{Func: engine.Count}, Model: regress.Const}
	exact := explain.Explanation{
		Refined: p,
		Attrs:   []string{"community", "type", "year"},
		Tuple:   value.Tuple{value.NewInt(12), value.NewString("Theft"), value.NewInt(2007)},
	}
	if !Covers(exact, qAttrs, gt) {
		t.Error("exact match should cover")
	}
	wrongYear := exact
	wrongYear.Tuple = value.Tuple{value.NewInt(12), value.NewString("Theft"), value.NewInt(2008)}
	if Covers(wrongYear, qAttrs, gt) {
		t.Error("wrong year must not cover")
	}
	coarse := explain.Explanation{
		Refined: p,
		Attrs:   []string{"community", "year"},
		Tuple:   value.Tuple{value.NewInt(12), value.NewInt(2007)},
	}
	if Covers(coarse, qAttrs, gt) {
		t.Error("coarser schema lacking the type attribute must not cover")
	}
}

func TestRandomQuestions(t *testing.T) {
	tab := dataset.GenerateCrime(dataset.CrimeConfig{Rows: 3000, Seed: 3, NumAttrs: 5})
	qs, err := RandomQuestions(tab, []string{"type", "community"}, engine.AggSpec{Func: engine.Count}, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 8 {
		t.Fatalf("questions = %d", len(qs))
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("invalid question: %v", err)
		}
		if q.AggValue.Int() <= 0 {
			t.Errorf("question about empty group: %v", q)
		}
	}
	// Determinism.
	qs2, _ := RandomQuestions(tab, []string{"type", "community"}, engine.AggSpec{Func: engine.Count}, 8, 42)
	for i := range qs {
		if !qs[i].Values.Equal(qs2[i].Values) || qs[i].Dir != qs2[i].Dir {
			t.Error("RandomQuestions not deterministic for fixed seed")
		}
	}
}

func TestRandomQuestionsEmptyResult(t *testing.T) {
	tab := engine.NewTable(engine.Schema{{Name: "a", Kind: value.Int}})
	if _, err := RandomQuestions(tab, []string{"a"}, engine.AggSpec{Func: engine.Count}, 3, 1); err == nil {
		t.Error("empty table should error")
	}
}

func TestRunPrecision(t *testing.T) {
	res, err := RunPrecision(PrecisionConfig{
		Table:        studyCrime(10000, 12),
		Spec:         studySpec,
		Mining:       studyMining(studyThresholds),
		NumQuestions: 4,
		K:            100,
		Delta:        5,
		Metric:       crimeMetric(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Questions == 0 {
		t.Fatal("no questions ran")
	}
	if res.Found < 0 || res.Found > res.Questions {
		t.Errorf("found %d of %d", res.Found, res.Questions)
	}
	if p := res.Precision(); p < 0 || p > 1 {
		t.Errorf("precision %g out of range", p)
	}
	// With a generous K the ground truth should be recovered at least
	// once — otherwise the whole pipeline is broken.
	if res.Found == 0 {
		t.Error("K=100 recovered no ground truths at all")
	}
}

func TestPrecisionResultZero(t *testing.T) {
	if (PrecisionResult{}).Precision() != 0 {
		t.Error("zero questions should give precision 0")
	}
}

// record is a Timer that runs each case once and keeps its outcome by
// case name.
type record map[string]Outcome

func (r record) time(c Case) (Outcome, time.Duration, error) {
	o, err := c.Run()
	r[c.Name] = o
	return o, 0, err
}

// pairs calls check with the outcomes of variants a and b at every point
// where a ran, and fails if a never ran.
func (r record) pairs(t *testing.T, a, b string, check func(point string, a, b Outcome)) {
	t.Helper()
	n := 0
	for name, o := range r {
		if point, variant := path.Split(name); variant == a {
			check(point, o, r[point+b])
			n++
		}
	}
	if n == 0 {
		t.Errorf("no %s case ran", a)
	}
}

// TestFig3ShareGrpAndARPMineExamineSameCandidates: ARP-MINE differs from
// SHARE-GRP only in reusing sort orders across splits, so on every
// Figure-3 point both examine exactly the same candidates and the
// runtime margin between them is sort cost alone.
func TestFig3ShareGrpAndARPMineExamineSameCandidates(t *testing.T) {
	for name, run := range map[string]func(Timer) error{
		"fig3a": func(tm Timer) error { return fig3a(io.Discard, tm, 1000, []int{4, 5}, 0) },
		"fig3b": func(tm Timer) error { return fig3b(io.Discard, tm, []int{1000}) },
		"fig3c": func(tm Timer) error { return fig3c(io.Discard, tm, []int{1000, 2000}) },
	} {
		rec := record{}
		if err := run(rec.time); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec.pairs(t, "ARP-MINE", "SHARE-GRP", func(point string, arp, share Outcome) {
			if arp.Mined.Candidates != share.Mined.Candidates {
				t.Errorf("%s %s: ARP-MINE examined %d candidates, SHARE-GRP %d",
					name, point, arp.Mined.Candidates, share.Mined.Candidates)
			}
		})
	}
}

// TestFig5FDsPruneWithoutAddingPatterns: on Figure 5's FD-rich schema
// the FD optimizations skip (F, V) pairs, and every pattern they keep
// is one the unpruned run finds too.
func TestFig5FDsPruneWithoutAddingPatterns(t *testing.T) {
	rec := record{}
	if err := fig5(io.Discard, rec.time, []int{1000}); err != nil {
		t.Fatal(err)
	}
	rec.pairs(t, "FDs=on", "FDs=off", func(point string, on, off Outcome) {
		if on.Mined.SkippedByFD == 0 {
			t.Errorf("%s: FDs=on skipped no (F, V) pairs", point)
		}
		offKeys := map[string]bool{}
		for _, p := range off.Mined.Patterns {
			offKeys[p.Pattern.Key()] = true
		}
		for _, p := range on.Mined.Patterns {
			if !offKeys[p.Pattern.Key()] {
				t.Errorf("%s: FDs=on found %s, which FDs=off did not", point, p.Pattern.Key())
			}
		}
	})
}

// TestFig6OptScoresNoMoreCandidates: the bound-pruned generator scores
// at most as many candidates as the naive one at every N_P of Figures
// 6a and 6b.
func TestFig6OptScoresNoMoreCandidates(t *testing.T) {
	eighths := []int{1, 2, 4, 8}
	for name, run := range map[string]func(Timer) error{
		"fig6a": func(tm Timer) error { return fig6a(io.Discard, tm, 4000, eighths) },
		"fig6b": func(tm Timer) error { return fig6b(io.Discard, tm, 4000, eighths) },
	} {
		rec := record{}
		if err := run(rec.time); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec.pairs(t, "EXPLGEN-OPT", "EXPLGEN-NAIVE", func(point string, opt, naive Outcome) {
			if opt.Candidates > naive.Candidates {
				t.Errorf("%s %s: EXPLGEN-OPT scored %d candidates, EXPLGEN-NAIVE %d",
					name, point, opt.Candidates, naive.Candidates)
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden")

const experimentsGolden = "testdata/experiments.golden"

// TestExperimentsRun runs every experiment at its default sizes as
// capebench does, the timing sweeps only without -short, and compares
// each one's output under the Untimed timer with its section of
// testdata/experiments.golden. Any change to a count, a top-k list or
// a precision cell fails here until -update regenerates the golden, so
// it shows in the diff.
func TestExperimentsRun(t *testing.T) {
	fast := map[string]bool{"fig3c": true, "table3": true, "table4": true, "table5": true,
		"table6": true, "table7": true, "userstudy": true}
	slow := map[string]bool{"fig6a": true, "fig6b": true, "fig7": true}
	if *update && testing.Short() {
		t.Fatal("-update needs every experiment; run it without -short")
	}
	var names []string
	got := map[string]string{}
	var all strings.Builder
	for _, e := range Experiments {
		names = append(names, e.Name)
		if e.Desc == "" || e.Run == nil {
			t.Errorf("%s has no description or no Run", e.Name)
			continue
		}
		if !fast[e.Name] && (testing.Short() || !slow[e.Name]) {
			continue
		}
		var out strings.Builder
		if err := e.Run(&out, Untimed, false); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		got[e.Name] = out.String()
		fmt.Fprintf(&all, "== %s ==\n%s", e.Name, out.String())
	}
	if *update {
		if err := os.WriteFile(experimentsGolden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want := readExperimentsGolden(t)
		for name, out := range got {
			if w, ok := want[name]; !ok {
				t.Errorf("%s: no section in %s; run with -update", name, experimentsGolden)
			} else if out != w {
				t.Errorf("%s output differs from %s (run with -update to accept):\n got:\n%s\nwant:\n%s",
					name, experimentsGolden, out, w)
			}
		}
	}
	// The names are the capebench commands and the Benchmark* lookups;
	// their order is the order of `capebench all`.
	want := []string{"fig3a", "fig3b", "fig3c", "fig4", "fig5", "fig6a", "fig6b", "fig6c", "fig7",
		"table3", "table4", "table5", "table6", "table7", "userstudy"}
	if !slices.Equal(names, want) {
		t.Errorf("experiments %v, want the paper's %v", names, want)
	}
}

// TestFig7FullRuns: at the -full size Figure 7 must still mine the two
// patterns its injection sites are found from; without them the
// experiment errors out and `capebench all -full` stops there.
func TestFig7FullRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps skipped in -short mode")
	}
	e, _ := Find("fig7")
	if err := e.Run(io.Discard, Once, true); err != nil {
		t.Fatal(err)
	}
}

// readExperimentsGolden splits the golden into its "== name ==" sections.
func readExperimentsGolden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	var name string
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if h, ok := strings.CutPrefix(line, "== "); ok && strings.HasSuffix(h, " ==\n") {
			name = strings.TrimSuffix(h, " ==\n")
			sections[name] = ""
			continue
		}
		sections[name] += line
	}
	return sections
}
