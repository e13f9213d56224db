// Command benchmark is the repository's one benchmark: four lifecycle
// workloads (set up → mine → request phase → verify), nine end-to-end
// metrics each computed from that workload's own samples, and a traced
// run that attributes time to engine / mining / explain / store /
// server / coord by calling each layer's public functions. See
// README.md in this directory.
//
//	go run ./benchmark                         all four workloads, untraced
//	go run ./benchmark -trace 1                per-layer metrics + trace-<workload>.json
//	go run ./benchmark -repeat 5 -out a.json   five passes (seeds seed..seed+4)
//	go run ./benchmark -compare a.json b.json  verdict per workload × metric
//	go run ./benchmark --workload serve_cold --seed 3 --seconds 10 --trace 0
//	                                           one run; last line is the driver's JSON object
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's JSON object as the last line (default: all four)")
		seed     = flag.Int64("seed", 1, "inputs are generated from this seed")
		seconds  = flag.Int("seconds", frozenSeconds, "run length; op counts scale from the frozen ones in proportion")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics only")
		repeat   = flag.Int("repeat", 1, "passes over the workloads; pass i uses seed+i")
		out      = flag.String("out", "", "write the full report as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two report files with the bounds in ./BENCHMARK.json: -compare a.json b.json")
		tiny     = flag.Bool("tiny", false, "smoke sizes (seconds-long runs; numbers mean nothing)")
		child    = flag.String("child", "", "internal: run one measuring process from this JSON config")
	)
	flag.Parse()

	switch {
	case *child != "":
		os.Exit(childMain(*child))
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareMain(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -repeat must be at least 1")
		os.Exit(2)
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if findWorkload(*workload) == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	rep := &report{Header: newHeader(*seconds, *tiny)}
	var last *runResult
	for pass := 0; pass < *repeat; pass++ {
		for _, name := range names {
			res, err := runWorkload(runConfig{
				Workload: name, Seed: *seed + int64(pass), Seconds: *seconds, Trace: *trace == 1, Tiny: *tiny,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				os.Exit(1)
			}
			rep.Runs = append(rep.Runs, res)
			res.print(os.Stdout)
			last = res
		}
	}
	if *out != "" {
		if err := rep.writeFile(*out); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	if *workload != "" {
		fmt.Println(last.driverLine())
	}
}

// childMain is a measuring process: one lifecycle, one JSON line.
func childMain(configJSON string) int {
	var cfg runConfig
	if err := json.Unmarshal([]byte(configJSON), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: %v\n", err)
		return 2
	}
	res, err := runChild(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}

// spawn runs one measuring process and decodes its result. Each gets
// its own process so peak RSS, GC state and set-up time are its own.
func spawn(cfg runConfig) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot(), cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.Workdir = dir
	cfg.SpawnedNs = time.Now().UnixNano()
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", string(raw))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the parent
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("measuring process: %w", err)
	}
	var res runResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("measuring process printed no result: %w", err)
	}
	return &res, nil
}

// workRoot is where data directories live for the length of a run:
// under the working directory, so nothing is written outside the
// checkout.
func workRoot() string {
	root := filepath.Join(".", ".bench_work")
	_ = os.MkdirAll(root, 0o755)
	return root
}

// runWorkload is one run as the driver counts them: setupChildren
// processes that only set up and mine, then the measuring process.
// setup_s and mine_s are medians over all of them.
func runWorkload(cfg runConfig) (*runResult, error) {
	var setups, mines []float64
	if !cfg.Trace && !cfg.Tiny {
		for i := 0; i < setupChildren; i++ {
			pre := cfg
			pre.SetupOnly = true
			res, err := spawn(pre)
			if err != nil {
				return nil, err
			}
			setups = append(setups, res.SetupS)
			mines = append(mines, res.MineS...)
		}
	}
	if cfg.Trace {
		cfg.TraceFile = "trace-" + cfg.Workload + ".json"
	}
	res, err := spawn(cfg)
	if err != nil {
		return nil, err
	}
	setups = append(setups, res.SetupS)
	mines = append(mines, res.MineS...)
	if !cfg.Trace {
		mergeSetups(res, setups, mines)
	}
	return res, nil
}

// mergeSetups sets setup_s and mine_s from the samples of every process
// of the run.
func mergeSetups(res *runResult, setups, mines []float64) {
	res.Metrics["setup_s"] = metric{median(setups), "s", len(setups), "median"}
	res.Metrics["mine_s"] = metric{median(mines), "s", len(mines), "median"}
}
