package exp

import (
	"fmt"
	"io"
	"time"

	"cape/internal/dataset"
	"cape/internal/engine"
	"cape/internal/mining"
	"cape/internal/pattern"
)

// paperThresholds are the mining thresholds of Section 5.1, with the
// support thresholds scaled to the smaller synthetic datasets (the paper
// used δ = Δ = 15 on millions of rows).
func paperThresholds() pattern.Thresholds {
	return pattern.Thresholds{Theta: 0.5, LocalSupport: 5, Lambda: 0.5, GlobalSupport: 5}
}

func miningOpts(attrs []string, psi int) mining.Options {
	return mining.Options{
		MaxPatternSize: psi,
		Attributes:     attrs,
		Thresholds:     paperThresholds(),
		AggFuncs:       []engine.AggFunc{engine.Count, engine.Sum},
		Parallelism:    1,
	}
}

// CrimeMining is a sweep point of Figures 3a, 3b, 4 and 5: the Crime
// data with the given rows and attributes (seed 1), mined over every
// attribute with maximum pattern size psi at the paper's thresholds.
func CrimeMining(rows, attrs, psi int) (*engine.Table, mining.Options) {
	tab := dataset.GenerateCrime(dataset.CrimeConfig{Rows: rows, Seed: 1, NumAttrs: attrs})
	return tab, miningOpts(tab.Schema().Names(), psi)
}

// dblpMining is a sweep point of Figure 3c. pubid is unique per row, so
// patterns over it cannot hold; the miners skip it.
func dblpMining(rows int) (*engine.Table, mining.Options) {
	tab := dataset.GenerateDBLP(dataset.DBLPConfig{Rows: rows, Seed: 1})
	return tab, miningOpts([]string{"author", "year", "venue"}, 3)
}

// miner is one variant of Figures 3–5.
type miner struct {
	name string
	run  func(engine.Relation, mining.Options) (*mining.Result, error)
}

// miners are Figure 3a's variants. The other mining figures omit NAIVE,
// as the paper does.
var miners = []miner{
	{"NAIVE", mining.Naive},
	{"CUBE", mining.CubeMine},
	{"SHARE-GRP", mining.ShareGrp},
	{"ARP-MINE", mining.ARPMine},
}

// fdMiners are Figure 5's variants: ARP-MINE without and with the FD
// optimizations.
var fdMiners = []miner{
	{"FDs=off", mining.ARPMine},
	{"FDs=on", func(r engine.Relation, opt mining.Options) (*mining.Result, error) {
		opt.UseFDs = true
		return mining.ARPMine(r, opt)
	}},
}

// mine is the unit of work of Figures 3–5: one run of m over tab.
func (m miner) mine(point string, tab *engine.Table, opt mining.Options) Case {
	return Case{Name: point + "/" + m.name, Run: func() (Outcome, error) {
		res, err := m.run(tab, opt)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Mined: *res}, nil
	}}
}

func ms(d time.Duration) time.Duration { return d.Round(time.Millisecond) }

// fig3a: mining runtime vs attribute count on Crime, ψ=4. NAIVE runs
// only up to naiveMax attributes — as in the paper, where its A=7 data
// point (18000 s) was omitted from the plot.
func fig3a(w io.Writer, timer Timer, rows int, attrCounts []int, naiveMax int) error {
	fmt.Fprintf(w, "Crime, D=%d, ψ=4, θ=0.5, λ=0.5, δ=5, Δ=5\n", rows)
	fmt.Fprintf(w, "%3s  %12s %12s %12s %12s  %9s\n", "A", "NAIVE", "CUBE", "SHARE-GRP", "ARP-MINE", "patterns")
	for _, a := range attrCounts {
		tab, opt := CrimeMining(rows, a, 4)
		fmt.Fprintf(w, "%3d", a)
		var patterns int
		for _, m := range miners {
			if m.name == "NAIVE" && a > naiveMax {
				fmt.Fprintf(w, "  %12s", "(omitted)")
				continue
			}
			o, d, err := timer(m.mine(fmt.Sprintf("A=%d", a), tab, opt))
			if err != nil {
				return err
			}
			patterns = len(o.Mined.Patterns)
			fmt.Fprintf(w, "  %12s", ms(d))
		}
		fmt.Fprintf(w, "  %9d\n", patterns)
	}
	return nil
}

// fig3b: mining runtime vs row count on Crime, A=7.
func fig3b(w io.Writer, timer Timer, sizes []int) error {
	fmt.Fprintln(w, "Crime, A=7, ψ=4 (NAIVE omitted as in the paper)")
	return minersByRows(w, timer, sizes, func(d int) (*engine.Table, mining.Options) { return CrimeMining(d, 7, 4) })
}

// fig3c: mining runtime vs row count on DBLP.
func fig3c(w io.Writer, timer Timer, sizes []int) error {
	fmt.Fprintln(w, "DBLP, A=4 (author, pubid, year, venue), ψ=4")
	return minersByRows(w, timer, sizes, dblpMining)
}

// minersByRows times CUBE, SHARE-GRP and ARP-MINE at each size's point
// and prints ARP-MINE's pattern and candidate counts beside the times.
func minersByRows(w io.Writer, timer Timer, sizes []int, point func(rows int) (*engine.Table, mining.Options)) error {
	fmt.Fprintf(w, "%8s  %12s %12s %12s  %9s %11s\n", "D", "CUBE", "SHARE-GRP", "ARP-MINE", "patterns", "candidates")
	for _, d := range sizes {
		tab, opt := point(d)
		fmt.Fprintf(w, "%8d", d)
		var res mining.Result
		for _, m := range miners[1:] {
			o, dur, err := timer(m.mine(fmt.Sprintf("D=%d", d), tab, opt))
			if err != nil {
				return err
			}
			res = o.Mined
			fmt.Fprintf(w, "  %12s", ms(dur))
		}
		fmt.Fprintf(w, "  %9d %11d\n", len(res.Patterns), res.Candidates)
	}
	return nil
}

// fig4: per-subtask breakdown normalized to the slowest variant (CUBE),
// as in the paper's stacked-bar figure.
func fig4(w io.Writer, timer Timer, rows int, attrCounts []int) error {
	fmt.Fprintf(w, "Crime, D=%d. Shares of total runtime, normalized to CUBE = 100%%\n", rows)
	fmt.Fprintf(w, "%3s  %-10s %10s %10s %10s %10s\n", "A", "variant", "regress", "query", "other", "total")
	for _, a := range attrCounts {
		tab, opt := CrimeMining(rows, a, 4)
		type row struct {
			name  string
			t     pattern.Timers
			total time.Duration
		}
		var out []row
		for _, m := range miners[1:] {
			o, dur, err := timer(m.mine(fmt.Sprintf("A=%d", a), tab, opt))
			if err != nil {
				return err
			}
			tm := o.Mined.Timers
			tm.Other = max(dur-tm.Query-tm.Regression, 0)
			out = append(out, row{m.name, tm, dur})
		}
		cubeTotal := out[0].total
		pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(cubeTotal) }
		for _, r := range out {
			fmt.Fprintf(w, "%3d  %-10s %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n",
				a, r.name, pct(r.t.Regression), pct(r.t.Query), pct(r.t.Other), pct(r.total))
		}
	}
	return nil
}

// fig5: ARP-MINE with FD optimizations off vs on, Crime with 10
// attributes (the FD-rich configuration), ψ=3.
func fig5(w io.Writer, timer Timer, sizes []int) error {
	fmt.Fprintln(w, "Crime, A=10 (block/district/beat/ward FDs present), ψ=3")
	fmt.Fprintf(w, "%8s  %12s %12s  %9s %9s\n", "D", "FDs off", "FDs on", "skipped", "FDs found")
	for _, d := range sizes {
		tab, opt := CrimeMining(d, 10, 3)
		var durs [2]time.Duration
		var on Outcome
		for i, m := range fdMiners {
			o, dur, err := timer(m.mine(fmt.Sprintf("D=%d", d), tab, opt))
			if err != nil {
				return err
			}
			durs[i], on = dur, o
		}
		fds := 0
		if on.Mined.FDs != nil { // nil when a benchmark filter skipped FDs=on
			fds = on.Mined.FDs.Len()
		}
		fmt.Fprintf(w, "%8d  %12s %12s  %9d %9d\n", d, ms(durs[0]), ms(durs[1]), on.Mined.SkippedByFD, fds)
	}
	return nil
}
