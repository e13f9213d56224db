// Command quickstart runs CAPE end-to-end on the paper's running example:
// author AX publishes ~4 papers per venue per year, but in 2007 had only
// one SIGKDD paper — because (as CAPE discovers) seven papers went to
// ICDE that year instead. It mines aggregate regression patterns, asks
// "why is AX's SIGKDD 2007 count low?", and prints the ranked
// counterbalancing explanations next to the pattern-blind baseline.
package main

import (
	"fmt"
	"log"

	"cape"
)

func main() {
	tab := cape.RunningExample()
	fmt.Printf("Pub relation: %d rows, schema %v\n\n", tab.NumRows(), tab.Schema().Names())

	// 1. Mine aggregate regression patterns offline.
	s := cape.NewSession(tab)
	s.SetMetric(cape.NewMetric().SetFunc("year", cape.NumericDistance{Scale: 4}))
	err := s.Mine(cape.MiningOptions{
		MaxPatternSize: 3,
		Thresholds:     cape.Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.3, GlobalSupport: 2},
		AggFuncs:       []cape.AggFunc{cape.AggCount},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Mined %d globally-holding patterns, e.g.:\n", len(s.Patterns()))
	for i, p := range s.Patterns() {
		if i == 4 {
			break
		}
		fmt.Printf("  %s  (confidence %.2f, %d local models)\n",
			p.Pattern, p.Confidence, p.GlobalSupport())
	}

	// 2. Ask the paper's question φ₀.
	fmt.Println("\nQuestion: why did AX publish only 1 SIGKDD paper in 2007?")
	expls, stats, err := s.Ask(
		[]string{"author", "venue", "year"},
		cape.Count(),
		cape.Tuple{cape.String("AX"), cape.String("SIGKDD"), cape.Int(2007)},
		cape.Low,
		cape.ExplainOptions{K: 5},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(%d relevant patterns, %d candidates checked, %d refinements pruned)\n\n",
		stats.RelevantPatterns, stats.Candidates, stats.PrunedRefinements)
	fmt.Println("Top counterbalancing explanations:")
	for i, e := range expls {
		fmt.Printf("  %d. %s\n", i+1, e)
	}

	// 3. Contrast with the pattern-blind baseline (Appendix A.2).
	q := cape.Question{
		GroupBy:  []string{"author", "venue", "year"},
		Agg:      cape.Count(),
		Values:   cape.Tuple{cape.String("AX"), cape.String("SIGKDD"), cape.Int(2007)},
		AggValue: cape.Int(1),
		Dir:      cape.Low,
	}
	base, err := cape.ExplainBaseline(q, tab, cape.BaselineOptions{K: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nBaseline (no patterns) for comparison:")
	for i, e := range base {
		fmt.Printf("  %d. %s\n", i+1, e)
	}
}
