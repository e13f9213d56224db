package explain

import (
	"strings"
	"testing"

	"cape/internal/value"
)

func TestNarrateLowQuestion(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	q := sigkddQuestion()
	expls, _, err := GenOpt(q, tab, pats, Options{K: 1, Metric: yearMetric()})
	if err != nil {
		t.Fatal(err)
	}
	if len(expls) == 0 {
		t.Fatal("no explanations")
	}
	text := expls[0].Narrate(q)
	for _, want := range []string{
		"lower than usual",
		"counterbalance",
		"ICDE",
		"2007",
		"above",
		"predicts",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("narration missing %q:\n%s", want, text)
		}
	}
}

func TestNarrateHighQuestion(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	q := sigkddQuestion()
	q.Dir = High
	q.Values[1] = value.NewString("ICDE")
	q.AggValue = value.NewInt(7)
	expls, _, err := GenOpt(q, tab, pats, Options{K: 1, Metric: yearMetric()})
	if err != nil {
		t.Fatal(err)
	}
	if len(expls) == 0 {
		t.Fatal("no explanations")
	}
	text := expls[0].Narrate(q)
	if !strings.Contains(text, "higher than usual") || !strings.Contains(text, "below") {
		t.Errorf("high-direction narration wrong:\n%s", text)
	}
	// Deviation is rendered as a magnitude, never with a minus sign.
	if strings.Contains(text, "is -") {
		t.Errorf("narration leaks signed deviation:\n%s", text)
	}
}
