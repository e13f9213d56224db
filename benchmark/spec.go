package main

// The benchmark's fixed vocabulary: workloads, their frozen sizes, and
// the metric names BENCHMARK.json lists. Later changes are judged with
// these, so the names do not change.

const (
	// explainK is the k of every top-k request.
	explainK = 10
	// procs pins GOMAXPROCS in every measuring process; clients never
	// exceed it.
	procs = 2
	// frozenSeconds is the run length the frozen op counts were sized
	// for; -seconds scales the counts in proportion.
	frozenSeconds = 15
	// holdExplains is how many answers the appending client collects at
	// one table epoch after a checkpoint append, for the oracle.
	holdExplains = 8
	// checkpoints is how many epochs the oracle re-derives answers at.
	checkpoints = 4
	// mineRepeats is how often mine_scale repeats its (side-effect free)
	// mining job in the measuring process.
	mineRepeats = 5
	// setupChildren is how many extra processes set up and mine only, so
	// setup_s and mine_s are medians over fresh processes.
	setupChildren = 2
)

// sizes are one workload's frozen input and op counts at frozenSeconds.
type sizes struct {
	Rows       int     `json:"rows"`
	SegRows    int     `json:"segRows,omitempty"`   // rows per sealed segment while streaming (mine_scale)
	FlushRows  int     `json:"flushRows,omitempty"` // store flush threshold; 0 = only at close
	Shards     int     `json:"shards"`              // 0 = library, 1 = one server, 2+ = coordinator
	Clients    int     `json:"clients"`
	Explains   int     `json:"explains"`
	Appends    int     `json:"appends"`
	AppendRows int     `json:"appendRows"`
	Pool       int     `json:"questionPool"` // distinct questions; == Explains when every question is distinct
	ZipfS      float64 `json:"zipfS,omitempty"`
}

// workloadSpec is one lifecycle workload.
type workloadSpec struct {
	name   string
	why    string
	shapes [][]string // group-by shapes the questions rotate over
	frozen sizes
	tiny   sizes
}

// Question shapes. A question only does generation work when mined
// patterns are relevant to it (F ∪ V ⊆ group-by), and over Crime those
// are the patterns on year and district: every shape holds both, so
// every question has 5 to 14 relevant patterns and the latency
// distribution has one mode, not one per shape. shapesKeyed also hold
// the shard key, so every question is owner-routable.
var (
	shapes4 = [][]string{
		{"type", "district", "year", "month"},
		{"type", "community", "district", "year"},
		{"community", "district", "year", "month"},
		{"district", "year", "month"},
	}
	shapesKeyed = [][]string{
		{"type", "community", "district", "year"},
		{"community", "district", "year", "month"},
		{"type", "community", "district", "year", "month"},
	}
)

var workloads = []workloadSpec{
	{
		name:   "mine_scale",
		why:    "library front door over a segment-backed store: group-by/sort/fit kernels and the segment tier do the work, HTTP and caches none",
		shapes: shapes4,
		frozen: sizes{Rows: 400000, SegRows: 131072, FlushRows: 4000, Clients: 1, Explains: 200, Appends: 100, AppendRows: 200, Pool: 200},
		tiny:   sizes{Rows: 6000, SegRows: 2048, FlushRows: 400, Clients: 1, Explains: 100, Appends: 12, AppendRows: 50, Pool: 100},
	},
	{
		name:   "serve_cold",
		why:    "one durable server, every question distinct so the answer cache never hits: validation, relevance, generation and top-k do the work",
		shapes: shapes4,
		frozen: sizes{Rows: 300000, Shards: 1, Clients: 2, Explains: 600, Appends: 100, AppendRows: 50, Pool: 600},
		tiny:   sizes{Rows: 6000, Shards: 1, Clients: 2, Explains: 100, Appends: 10, AppendRows: 10, Pool: 100},
	},
	{
		name:   "serve_hot_sharded",
		why:    "coordinator over 2 durable shards, Zipf questions mostly hit its answer cache: HTTP, admission and the cache at the median, fan-out at the tail",
		shapes: shapesKeyed,
		frozen: sizes{Rows: 120000, Shards: 2, Clients: 2, Explains: 20000, Appends: 100, AppendRows: 20, Pool: 250, ZipfS: 1.1},
		tiny:   sizes{Rows: 6000, Shards: 2, Clients: 2, Explains: 120, Appends: 10, AppendRows: 6, Pool: 40, ZipfS: 1.1},
	},
	{
		name:   "append_mix",
		why:    "the serve_cold deployment with 20% appends and segment flushes beside Zipf reads: maintenance, index rebuild, invalidation and flush show here",
		shapes: shapes4,
		frozen: sizes{Rows: 300000, Shards: 1, FlushRows: 1500, Clients: 2, Explains: 400, Appends: 100, AppendRows: 100, Pool: 500, ZipfS: 1.1},
		tiny:   sizes{Rows: 6000, Shards: 1, FlushRows: 60, Clients: 2, Explains: 100, Appends: 18, AppendRows: 10, Pool: 40, ZipfS: 1.1},
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sized returns the workload's sizes for a run: tiny ones for the smoke
// test, otherwise the frozen ones with the op counts scaled from
// frozenSeconds to seconds (never below the sample floors).
func (w *workloadSpec) sized(seconds int, tiny bool) sizes {
	if tiny {
		return w.tiny
	}
	s := w.frozen
	scale := func(n, floor int) int {
		n = n * seconds / frozenSeconds
		if n < floor {
			n = floor
		}
		return n
	}
	s.Explains = scale(s.Explains, 200)
	s.Appends = scale(s.Appends, 100)
	if s.ZipfS == 0 {
		s.Pool = s.Explains
	}
	return s
}

// metricDef is one metric as BENCHMARK.json lists it; Bound is filled in
// from that file where a verdict needs it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the nine metrics a user of the system sees; every
// workload reports each from its own samples.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "mine_s", Unit: "s", Better: "lower"},
	{Name: "explain_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "explain_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "append_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "goodput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "disk_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher"},
}

// perLayer are the per-layer metrics BENCHMARK.json lists: the ones
// every workload measures, because every workload has a relation, a
// store, a pattern set and an Explainer to call into. The metrics of
// the HTTP tiers (server.*, coord.*) exist only where there is a server
// or a coordinator; a traced run reports them too, but the driver's
// object must carry every listed metric for every workload.
var perLayer = []metricDef{
	{Name: "engine.groupby_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.groupby_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.segment_open_ms", Unit: "ms", Better: "lower"},
	{Name: "mining.query_s", Unit: "s", Better: "lower"},
	{Name: "mining.regression_s", Unit: "s", Better: "lower"},
	{Name: "mining.other_s", Unit: "s", Better: "lower"},
	{Name: "mining.candidates", Unit: "count", Better: "lower"},
	{Name: "mining.patterns", Unit: "count", Better: "higher"},
	{Name: "mining.maintainer_build_s", Unit: "s", Better: "lower"},
	{Name: "mining.maintainer_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "explain.index_build_ms", Unit: "ms", Better: "lower"},
	{Name: "explain.index_relevant_us", Unit: "us", Better: "lower"},
	{Name: "explain.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "explain.generate_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "explain.relevant_patterns", Unit: "count", Better: "lower"},
	{Name: "explain.refinement_pairs", Unit: "count", Better: "lower"},
	{Name: "explain.candidates", Unit: "count", Better: "lower"},
	{Name: "explain.pruned_share", Unit: "ratio", Better: "higher"},
	{Name: "explain.cached_groupings", Unit: "count", Better: "lower"},
	{Name: "explain.batch16_ms_per_q", Unit: "ms", Better: "lower"},
	{Name: "store.append_ms", Unit: "ms", Better: "lower"},
	{Name: "store.append_max_ms", Unit: "ms", Better: "lower"},
	{Name: "store.fsyncs_per_append", Unit: "count", Better: "lower"},
	{Name: "store.wal_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "store.flushes", Unit: "count", Better: "lower"},
	{Name: "store.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "store.bytes_written_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "store.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "store.replayed_batches", Unit: "count", Better: "lower"},
	{Name: "harness.client_floor_us", Unit: "us", Better: "lower"},
	{Name: "harness.cpu_s_per_op", Unit: "s", Better: "lower"},
	{Name: "harness.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "harness.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
}
