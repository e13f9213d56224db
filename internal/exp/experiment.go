package exp

import (
	"io"
	"time"

	"cape/internal/mining"
)

// Experiment is one table or figure of the paper's evaluation. Its Run
// is the experiment's only definition: the dataset and seed, the size
// and attribute sweep, ψ and the thresholds, how questions are chosen,
// the variants, and the unit of work each case times. cmd/capebench
// runs it with Once; the root package's benchmarks run the same cases
// under testing.B.
type Experiment struct {
	Name string
	Desc string
	// Run builds the experiment at the default or the larger -full
	// sizes, times every case with timer and prints the paper's rows
	// or series to w.
	Run func(w io.Writer, timer Timer, full bool) error
}

// Case is one unit of work an experiment times. Name carries the case's
// parameters below the experiment, e.g. "D=5000/ARP-MINE".
type Case struct {
	Name string
	Run  func() (Outcome, error)
}

// Outcome is the exact work a case did, beside the wall time a Timer
// measures. Cases of the tables, Figure 7 and the user study report
// theirs in what they print instead.
type Outcome struct {
	// Mined is a mining case's result (Figures 3–5).
	Mined mining.Result
	// Candidates and Pruned sum explain.Stats' Candidates and
	// PrunedRefinements over an explanation case's questions
	// (Figure 6).
	Candidates, Pruned int
}

// Timer runs one case and reports its outcome and the wall time of one
// run of it.
type Timer func(Case) (Outcome, time.Duration, error)

// Once is the Timer of cmd/capebench: it runs the case once.
func Once(c Case) (Outcome, time.Duration, error) {
	start := time.Now()
	o, err := c.Run()
	return o, time.Since(start), err
}

// Untimed runs the case once and reports a fixed 1 ms, so an
// experiment's output depends only on the tree: its counts, top-k
// lists and precision cells, with every timing column constant.
// internal/exp/testdata/experiments.golden is that output.
func Untimed(c Case) (Outcome, time.Duration, error) {
	o, err := c.Run()
	return o, time.Millisecond, err
}

// Experiments lists every experiment in the order `capebench all` runs
// them.
var Experiments = []Experiment{
	{"fig3a", "mining runtime vs attribute count (Crime): NAIVE / CUBE / SHARE-GRP / ARP-MINE",
		func(w io.Writer, timer Timer, full bool) error {
			if full {
				return fig3a(w, timer, 10000, []int{4, 5, 6, 7, 8, 9, 10, 11}, 5)
			}
			return fig3a(w, timer, 5000, []int{4, 5, 6, 7, 8}, 4)
		}},
	{"fig3b", "mining runtime vs row count (Crime)",
		func(w io.Writer, timer Timer, full bool) error { return fig3b(w, timer, rowSweep(full)) }},
	{"fig3c", "mining runtime vs row count (DBLP)",
		func(w io.Writer, timer Timer, full bool) error { return fig3c(w, timer, rowSweep(full)) }},
	{"fig4", "mining subtask breakdown: regression vs query vs other",
		func(w io.Writer, timer Timer, full bool) error {
			if full {
				return fig4(w, timer, 10000, []int{4, 6, 8, 10, 11})
			}
			return fig4(w, timer, 5000, []int{4, 6, 8})
		}},
	{"fig5", "ARP-MINE with and without FD optimizations (Crime, 9 attrs)",
		func(w io.Writer, timer Timer, full bool) error {
			if full {
				return fig5(w, timer, []int{10000, 25000, 50000, 100000})
			}
			return fig5(w, timer, []int{5000, 10000, 20000})
		}},
	{"fig6a", "explanation runtime vs number of local patterns (DBLP), naive vs opt",
		func(w io.Writer, timer Timer, full bool) error {
			rows, eighths := explainSweep(full)
			return fig6a(w, timer, rows, eighths)
		}},
	{"fig6b", "explanation runtime vs number of local patterns (Crime)",
		func(w io.Writer, timer Timer, full bool) error {
			rows, eighths := explainSweep(full)
			return fig6b(w, timer, rows, eighths)
		}},
	{"fig6c", "explanation runtime vs question group-by size (Crime)",
		func(w io.Writer, timer Timer, full bool) error {
			rows, _ := explainSweep(full)
			return fig6c(w, timer, rows)
		}},
	{"fig7", "precision vs (θ, λ, Δ) on injected ground-truth counterbalances",
		func(w io.Writer, timer Timer, full bool) error {
			if full {
				// Communities grow with the rows so per-group counts stay
				// where the site-finding mine (θ=0.2, χ² fit) still admits
				// the two patterns injection needs; 20000 rows over 12
				// communities mines neither and the experiment cannot
				// start.
				return fig7(w, timer, 20000, 24)
			}
			return fig7(w, timer, 10000, 12)
		}},
	{"table3", "top-10 explanations for the running-example question (low)",
		func(w io.Writer, timer Timer, _ bool) error { return table3(w, timer) }},
	{"table4", "top-5 CAPE explanations, DBLP high question",
		func(w io.Writer, timer Timer, _ bool) error { return capeTable(w, timer, dblpScenario) }},
	{"table5", "top-5 CAPE explanations, Crime low question",
		func(w io.Writer, timer Timer, _ bool) error { return capeTable(w, timer, crimeScenario) }},
	{"table6", "top-5 baseline explanations, DBLP high question",
		func(w io.Writer, timer Timer, _ bool) error { return baselineTable(w, timer, dblpScenario) }},
	{"table7", "top-5 baseline explanations, Crime low question",
		func(w io.Writer, timer Timer, _ bool) error { return baselineTable(w, timer, crimeScenario) }},
	{"userstudy", "machine-checkable part of the Appendix-B user study",
		func(w io.Writer, timer Timer, _ bool) error { return userStudy(w, timer) }},
}

// rowSweep is the D sweep of Figures 3b and 3c.
func rowSweep(full bool) []int {
	if full {
		return []int{10000, 25000, 50000, 100000, 200000}
	}
	return []int{5000, 10000, 20000, 50000}
}

// explainSweep is the table size of Figure 6 and the N_P points of
// Figures 6a and 6b, in eighths of the pattern pool's local models.
func explainSweep(full bool) (rows int, eighths []int) {
	if full {
		return 100000, []int{1, 2, 4, 6, 8}
	}
	return 20000, []int{1, 2, 4, 8}
}

// Find returns the experiment called name.
func Find(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
