package cape_test

import (
	"fmt"

	"cape"
)

// Example runs the paper's running example end to end: mine patterns
// over the mini-DBLP instance and explain why AX's SIGKDD 2007
// publication count is low.
func Example() {
	tab := cape.RunningExample()

	s := cape.NewSession(tab)
	s.SetMetric(cape.NewMetric().SetFunc("year", cape.NumericDistance{Scale: 4}))
	if err := s.Mine(cape.MiningOptions{
		MaxPatternSize: 3,
		Thresholds:     cape.Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.3, GlobalSupport: 2},
		AggFuncs:       []cape.AggFunc{cape.AggCount},
	}); err != nil {
		panic(err)
	}

	expls, _, err := s.Ask(
		[]string{"author", "venue", "year"}, cape.Count(),
		cape.Tuple{cape.String("AX"), cape.String("SIGKDD"), cape.Int(2007)},
		cape.Low, cape.ExplainOptions{K: 1},
	)
	if err != nil {
		panic(err)
	}
	top := expls[0]
	venue, year := "", int64(0)
	for i, a := range top.Attrs {
		switch a {
		case "venue":
			venue = top.Tuple[i].Str()
		case "year":
			year = top.Tuple[i].Int()
		}
	}
	fmt.Printf("top counterbalance: %s %d with %s = %s (%.2f above prediction)\n",
		venue, year, top.Refined.Agg, top.AggValue, top.Deviation)
	// Output:
	// top counterbalance: ICDE 2007 with count(*) = 7 (3.67 above prediction)
}

// ExampleMinePatterns demonstrates direct miner use and the mined
// pattern's local models.
func ExampleMinePatterns() {
	tab := cape.RunningExample()
	res, err := cape.MinePatterns(tab, cape.MiningOptions{
		MaxPatternSize: 2,
		Attributes:     []string{"author", "year"},
		Thresholds:     cape.Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.5, GlobalSupport: 2},
		AggFuncs:       []cape.AggFunc{cape.AggCount},
	})
	if err != nil {
		panic(err)
	}
	for _, m := range res.Patterns {
		if m.Pattern.Model != cape.ModelConst || m.Pattern.F[0] != "author" {
			continue
		}
		fmt.Printf("%s holds for %d fragments\n", m.Pattern, m.GlobalSupport())
		if lm, ok := m.Local(cape.Tuple{cape.String("AX")}); ok {
			fmt.Printf("AX publishes about %.0f papers per year\n", lm.Model.Predict(nil))
		}
	}
	// Output:
	// [author]: year ~Const~> count(*) holds for 3 fragments
	// AX publishes about 12 papers per year
}

// ExampleExplanation_Narrate renders an explanation as prose.
func ExampleExplanation_Narrate() {
	tab := cape.RunningExample()
	s := cape.NewSession(tab)
	s.SetMetric(cape.NewMetric().SetFunc("year", cape.NumericDistance{Scale: 4}))
	if err := s.Mine(cape.MiningOptions{
		MaxPatternSize: 3,
		Thresholds:     cape.Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.3, GlobalSupport: 2},
		AggFuncs:       []cape.AggFunc{cape.AggCount},
	}); err != nil {
		panic(err)
	}
	q := cape.Question{
		GroupBy:  []string{"author", "venue", "year"},
		Agg:      cape.Count(),
		Values:   cape.Tuple{cape.String("AX"), cape.String("SIGKDD"), cape.Int(2007)},
		AggValue: cape.Int(1),
		Dir:      cape.Low,
	}
	expls, _, err := s.Explain(q, cape.ExplainOptions{K: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(expls[0].Narrate(q))
}
