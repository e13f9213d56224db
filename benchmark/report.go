package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// reportHeader says what produced a report, so two files can be
// refused as incomparable.
type reportHeader struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"goVersion"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Kernel     string           `json:"kernel"`
	Seconds    int              `json:"seconds"`
	Tiny       bool             `json:"tiny,omitempty"`
	Fsync      string           `json:"fsync"`
	Sizes      map[string]sizes `json:"frozenSizes"`
}

func newHeader(seconds int, tiny bool) reportHeader {
	h := reportHeader{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		Kernel:     "unknown",
		Seconds:    seconds,
		Tiny:       tiny,
		Fsync:      "always",
		Sizes:      map[string]sizes{},
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	for i := range workloads {
		h.Sizes[workloads[i].name] = workloads[i].sized(seconds, tiny)
	}
	return h
}

// report is the JSON a full invocation writes with -out.
type report struct {
	Header reportHeader `json:"header"`
	Runs   []*runResult `json:"runs"`
}

func (r *report) writeFile(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// print lists every metric of the run by name, with its unit, sample
// count and the statistic it is.
func (r *runResult) print(w io.Writer) {
	mode := "untraced"
	if r.Config.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s  seed=%d  %s  rows=%d clients=%d explains=%d appends=%d×%d  patterns=%d  inputs table=%s questions=%s appends=%s\n",
		r.Config.Workload, r.Config.Seed, mode, r.Sizes.Rows, r.Sizes.Clients, r.Sizes.Explains,
		r.Sizes.Appends, r.Sizes.AppendRows, r.Patterns, r.Hashes["table"], r.Hashes["questions"], r.Hashes["appends"])
	for _, name := range r.metricNames() {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%-7d %s\n", name, m.Value, m.Unit, m.N, m.Stat)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v  phases(s): setup=%.2f", r.Attempted, r.Failed, r.Correct, r.SetupS)
	for _, ph := range []string{"mine", "prepare", "request", "verify"} {
		fmt.Fprintf(w, " %s=%.2f", ph, r.PhaseS[ph])
	}
	fmt.Fprintln(w)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// metricNames orders the end-to-end metrics as BENCHMARK.json does and
// everything else by name.
func (r *runResult) metricNames() []string {
	var names []string
	for _, d := range endToEnd {
		if _, ok := r.Metrics[d.Name]; ok {
			names = append(names, d.Name)
		}
	}
	var rest []string
	for n := range r.Metrics {
		if strings.Contains(n, ".") {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

// driverLine is the one JSON object the driver reads: the end-to-end
// metrics of an untraced run, or the per-layer metrics BENCHMARK.json
// lists of a traced one.
func (r *runResult) driverLine() string {
	defs := endToEnd
	if r.Config.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{r.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}
