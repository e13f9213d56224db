// Command capebench regenerates every table and figure of the CAPE
// paper's evaluation (Section 5 and Appendices A–B) on the synthetic
// datasets this repository ships. Each subcommand prints the same rows or
// series the paper reports; absolute numbers differ (the substrate is an
// in-memory Go engine, not Python-on-PostgreSQL on the authors' testbed)
// but the comparative shape — which variant wins, linearity in D, growth
// in A, where precision falls off — is what the harness reproduces.
//
// Usage:
//
//	capebench <experiment> [-full]
//
// Experiments: fig3a fig3b fig3c fig4 fig5 fig6a fig6b fig6c fig7
// table3 table4 table5 table6 table7 userstudy all
//
// -full runs the larger input sizes (slower; closer to the paper's
// ranges).
//
// Performance numbers for the system itself come from `go run
// ./benchmark` (see benchmark/README.md); the figures here are also
// testing.B targets in the root package's bench_test.go, which is where
// `go test -bench … -cpuprofile` profiles them.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
)

// experiments maps subcommand names to runners. Each runner prints its
// own header and rows.
var experiments = map[string]struct {
	run  func(full bool) error
	desc string
}{
	"fig3a":     {runFig3a, "mining runtime vs attribute count (Crime): NAIVE / CUBE / SHARE-GRP / ARP-MINE"},
	"fig3b":     {runFig3b, "mining runtime vs row count (Crime)"},
	"fig3c":     {runFig3c, "mining runtime vs row count (DBLP)"},
	"fig4":      {runFig4, "mining subtask breakdown: regression vs query vs other"},
	"fig5":      {runFig5, "ARP-MINE with and without FD optimizations (Crime, 9 attrs)"},
	"fig6a":     {runFig6a, "explanation runtime vs number of local patterns (DBLP), naive vs opt"},
	"fig6b":     {runFig6b, "explanation runtime vs number of local patterns (Crime)"},
	"fig6c":     {runFig6c, "explanation runtime vs question group-by size (Crime)"},
	"fig7":      {runFig7, "precision vs (θ, λ, Δ) on injected ground-truth counterbalances"},
	"table3":    {runTable3, "top-10 explanations for the running-example question (low)"},
	"table4":    {runTable4, "top-5 CAPE explanations, DBLP high question"},
	"table5":    {runTable5, "top-5 CAPE explanations, Crime low question"},
	"table6":    {runTable6, "top-5 baseline explanations, DBLP high question"},
	"table7":    {runTable7, "top-5 baseline explanations, Crime low question"},
	"userstudy": {runUserStudy, "machine-checkable part of the Appendix-B user study"},
}

// experimentNames returns the registry's keys in the order `all` runs
// them and usage lists them.
func experimentNames() []string {
	names := make([]string, 0, len(experiments))
	for n := range experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: capebench <experiment> [-full]")
	fmt.Fprintln(os.Stderr, "\nexperiments:")
	for _, n := range experimentNames() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", n, experiments[n].desc)
	}
	fmt.Fprintln(os.Stderr, "  all        run everything")
	fmt.Fprintln(os.Stderr, "\n  -full      run larger (slower) input sizes, closer to the paper's ranges")
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = usage
	full := fs.Bool("full", false, "run larger (slower) input sizes")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	names := []string{name}
	if name == "all" {
		names = experimentNames()
	}
	for _, n := range names {
		e, ok := experiments[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "capebench: unknown experiment %q\n\n", n)
			usage()
			os.Exit(2)
		}
		fmt.Printf("==> %s: %s\n\n", n, e.desc)
		if err := e.run(*full); err != nil {
			fmt.Fprintf(os.Stderr, "capebench %s: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
