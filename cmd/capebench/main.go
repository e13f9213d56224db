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
// The experiments are defined once, in internal/exp: capebench times
// each case once, and the root package's benchmarks run the same cases
// under testing.B (`go test -bench Fig3b .`), which is where `-cpuprofile`
// profiles them. Performance numbers for the system itself come from
// `go run ./benchmark` (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"cape/internal/exp"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: capebench <experiment> [-full]")
	fmt.Fprintln(os.Stderr, "\nexperiments:")
	for _, e := range exp.Experiments {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.Name, e.Desc)
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

	run := exp.Experiments
	if name != "all" {
		e, ok := exp.Find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "capebench: unknown experiment %q\n\n", name)
			usage()
			os.Exit(2)
		}
		run = []exp.Experiment{e}
	}
	for _, e := range run {
		fmt.Printf("==> %s: %s\n\n", e.Name, e.Desc)
		if err := e.Run(os.Stdout, exp.Once, *full); err != nil {
			fmt.Fprintf(os.Stderr, "capebench %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
