package exp

import (
	"fmt"
	"io"

	"cape/internal/baseline"
	"cape/internal/dataset"
	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/mining"
	"cape/internal/value"
)

// userStudy reproduces the machine-checkable part of the Appendix-B
// user study. The paper measured whether 14 humans — half with CAPE's
// top-10, half without — could find a "sensible explanation" for three
// outlier questions over a two-community crime extract. Humans are out of
// scope for this repository; what can be reproduced is the core claim
// behind the treatment group's advantage: for each study question, the
// planted sensible explanation appears in CAPE's top-10 but not in the
// pattern-blind baseline's. The timed unit is the whole study: three
// injections, re-mines and pairs of explanation lists.
func userStudy(w io.Writer, timer Timer) error {
	tab := studyCrime(10000, 12)
	opt := studyMining(studyThresholds)
	clean, err := mining.ARPMine(tab, opt)
	if err != nil {
		return err
	}
	sites, err := FindSites(tab, studySpec, clean.Patterns, 3)
	if err != nil {
		return err
	}
	if len(sites) < 3 {
		return fmt.Errorf("only %d study sites found, need 3", len(sites))
	}

	var hits [][2]bool
	_, _, err = timer(Case{Name: "questions=3", Run: func() (Outcome, error) {
		hits = hits[:0]
		for _, site := range sites {
			h, err := studyQuestion(tab, site, opt)
			if err != nil {
				return Outcome{}, err
			}
			hits = append(hits, h)
		}
		return Outcome{}, nil
	}})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "three study questions with a planted sensible explanation each;")
	fmt.Fprintln(w, "hit = the planted counterbalance appears in the method's top-10")
	fmt.Fprintf(w, "\n%4s  %-40s %6s %10s\n", "phi", "question tuple (low)", "CAPE", "baseline")
	capeHits, baseHits := 0, 0
	for i, h := range hits {
		if h[0] {
			capeHits++
		}
		if h[1] {
			baseHits++
		}
		fmt.Fprintf(w, "%4d  %-40s %6v %10v\n", i+1, sites[i].Outlier.String(), h[0], h[1])
	}
	fmt.Fprintf(w, "\nsuccess rate: CAPE %d/3, baseline %d/3\n", capeHits, baseHits)
	fmt.Fprintln(w, "(the paper's human success rates: treatment 86/71/57%, control 71/43/0%)")
	return nil
}

// studyQuestion plants site's counterbalance and reports whether CAPE's
// top-10 and the baseline's hold a sensible explanation of it.
func studyQuestion(tab *engine.Table, site Site, opt mining.Options) (hits [2]bool, err error) {
	s, gt, err := plant(tab, studySpec.QuestionAttrs(), site, 5, opt, crimeMetric())
	if err != nil {
		return hits, err
	}
	expls, _, err := explain.GenOpt(s.q, s.tab, s.patterns, explain.Options{K: 10, Metric: s.metric})
	if err != nil {
		return hits, err
	}
	for _, e := range expls {
		if sensible(e, s.q.GroupBy, gt) {
			hits[0] = true
			break
		}
	}
	base, err := baseline.Explain(s.q, s.tab, baseline.Options{K: 10, Metric: s.metric})
	if err != nil {
		return hits, err
	}
	for _, e := range base {
		if e.Tuple.Equal(gt.CounterTuple) {
			hits[1] = true
			break
		}
	}
	return hits, nil
}

// sensible mirrors the paper's manual grading: an explanation counts if
// it matches the planted counterbalance on every question attribute it
// carries and pins down at least the shared community and year — exact
// matches and their coarser (community, year) roll-ups both qualify,
// since both point the analyst at the shifted reports.
func sensible(e explain.Explanation, qAttrs []string, gt dataset.GroundTruth) bool {
	if Covers(e, qAttrs, gt.CounterTuple) {
		return true
	}
	matched := map[string]bool{}
	for i, a := range e.Attrs {
		for j, ga := range qAttrs {
			if a != ga {
				continue
			}
			if !value.Equal(e.Tuple[i], gt.CounterTuple[j]) {
				return false
			}
			matched[a] = true
		}
	}
	// qAttrs is (type, frag, pred); require the frag and pred attributes.
	return matched[qAttrs[1]] && matched[qAttrs[2]]
}
