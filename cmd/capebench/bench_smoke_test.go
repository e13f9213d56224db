package main

import (
	"os"
	"testing"
)

// TestMain silences the experiment runners' stdout during tests.
func TestMain(m *testing.M) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err == nil {
		os.Stdout = null
	}
	os.Exit(m.Run())
}

// TestFastExperimentsRun smoke-tests every experiment that completes in a
// few seconds at default sizes; the timing-sweep experiments are covered
// by the bench targets and by `capebench all`.
func TestFastExperimentsRun(t *testing.T) {
	fast := []string{"table3", "table4", "table5", "table6", "table7", "fig3c", "userstudy"}
	for _, name := range fast {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := experiments[name].run(false); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}
}

func TestSlowExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps skipped in -short mode")
	}
	slow := []string{"fig6a", "fig6b", "fig7"}
	for _, name := range slow {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := experiments[name].run(false); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}
}

// TestFig7FullRuns: at the -full size Figure 7 must still mine the two
// patterns its injection sites are found from; without them the
// experiment errors out and `capebench all -full` stops there.
func TestFig7FullRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps skipped in -short mode")
	}
	if err := experiments["fig7"].run(true); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig3a", "fig3b", "fig3c", "fig4", "fig5",
		"fig6a", "fig6b", "fig6c", "fig7",
		"table3", "table4", "table5", "table6", "table7", "userstudy",
	}
	for _, name := range want {
		e, ok := experiments[name]
		if !ok {
			t.Errorf("experiment %q missing from registry", name)
			continue
		}
		if e.run == nil || e.desc == "" {
			t.Errorf("experiment %q incomplete", name)
		}
	}
	if len(experiments) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(experiments), len(want))
	}
}
