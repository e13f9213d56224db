// Package cape is a Go implementation of CAPE (Counterbalancing with
// Aggregate Patterns for Explanations), the query-answer explanation
// system of "Going Beyond Provenance: Explaining Query Answers with
// Pattern-based Counterbalances" (SIGMOD 2019).
//
// CAPE answers user questions of the form "why is this aggregate query
// result surprisingly high/low?" by (1) mining aggregate regression
// patterns (ARPs) — trends like "each author publishes a roughly constant
// number of papers per year" that hold over the result of group-by
// aggregation — and (2) finding counterbalances: data points that deviate
// from a related pattern in the opposite direction of the user's
// observation, ranked by a deviation/distance score.
//
// The typical flow:
//
//	tab, _ := cape.ReadCSVFile("pubs.csv")
//	s := cape.NewSession(tab)
//	_ = s.Mine(cape.MiningOptions{MaxPatternSize: 3})
//	q := cape.Question{
//		GroupBy:  []string{"author", "venue", "year"},
//		Agg:      cape.Count(),
//		Values:   cape.Tuple{cape.String("AX"), cape.String("SIGKDD"), cape.Int(2007)},
//		AggValue: cape.Int(1),
//		Dir:      cape.Low,
//	}
//	expls, _, _ := s.Explain(q, cape.ExplainOptions{K: 10})
//
// The package re-exports the building blocks (relational engine,
// regression models, distance metrics, miners, generators, synthetic
// dataset generators) so downstream users can compose them directly.
package cape

import (
	"errors"
	"fmt"
	"io"

	"cape/internal/baseline"
	"cape/internal/dataset"
	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/exp"
	"cape/internal/explain"
	"cape/internal/fd"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/regress"
	"cape/internal/server"
	"cape/internal/sql"
	"cape/internal/value"
)

// ---- Values and tuples ----

// Value is a dynamically typed scalar (int64, float64, string, or NULL).
type Value = value.V

// Tuple is an ordered list of values.
type Tuple = value.Tuple

// Int wraps an int64 as a Value.
func Int(i int64) Value { return value.NewInt(i) }

// Float wraps a float64 as a Value.
func Float(f float64) Value { return value.NewFloat(f) }

// String wraps a string as a Value.
func String(s string) Value { return value.NewString(s) }

// Null is the NULL Value.
func Null() Value { return value.NewNull() }

// ---- Relational engine ----

// Table is an in-memory relation.
type Table = engine.Table

// Schema describes a table's columns.
type Schema = engine.Schema

// Column is one schema entry.
type Column = engine.Column

// Kind identifiers for Column.Kind.
const (
	KindNull   = value.Null
	KindInt    = value.Int
	KindFloat  = value.Float
	KindString = value.String
)

// NewTable creates an empty table with the given schema.
func NewTable(s Schema) *Table { return engine.NewTable(s) }

// ReadCSV loads a table from CSV data (header row required; fields are
// parsed to the most specific kind).
func ReadCSV(r io.Reader) (*Table, error) { return engine.ReadCSV(r) }

// ReadCSVFile loads a table from a CSV file.
func ReadCSVFile(path string) (*Table, error) { return engine.ReadCSVFile(path) }

// AggSpec is an aggregate expression such as count(*) or sum(amount).
type AggSpec = engine.AggSpec

// AggFunc identifies an aggregate function.
type AggFunc = engine.AggFunc

// Aggregate function identifiers.
const (
	AggCount = engine.Count
	AggSum   = engine.Sum
	AggAvg   = engine.Avg
	AggMin   = engine.Min
	AggMax   = engine.Max
)

// Count returns the count(*) aggregate spec.
func Count() AggSpec { return AggSpec{Func: engine.Count} }

// Sum returns the sum(attr) aggregate spec.
func Sum(attr string) AggSpec { return AggSpec{Func: engine.Sum, Arg: attr} }

// ---- Patterns and mining ----

// Pattern is an aggregate regression pattern [F] : V ~M~> agg(A).
type Pattern = pattern.Pattern

// MinedPattern is a pattern that holds globally, with its per-fragment
// regression models attached.
type MinedPattern = pattern.Mined

// LocalModel is the regression model of one fragment.
type LocalModel = pattern.LocalModel

// Thresholds bundles θ (local model quality), δ (local support),
// λ (global confidence) and Δ (global support).
type Thresholds = pattern.Thresholds

// DefaultThresholds returns sensible small-data defaults.
func DefaultThresholds() Thresholds { return pattern.DefaultThresholds() }

// Regression model families.
const (
	ModelConst = regress.Const
	ModelLin   = regress.Lin
)

// MiningOptions configures pattern mining.
type MiningOptions = mining.Options

// MiningResult is the outcome of a mining run.
type MiningResult = mining.Result

// FDSet stores functional dependencies for the Appendix-D optimizations.
type FDSet = fd.Set

// NewFDSet returns an empty functional-dependency set.
func NewFDSet() *FDSet { return fd.NewSet() }

// MinePatterns mines ARPs with the ARP-MINE algorithm (the paper's best
// variant: shared group-by queries, sort-order reuse, optional FD
// pruning).
func MinePatterns(t *Table, opt MiningOptions) (*MiningResult, error) {
	return mining.ARPMine(t, opt)
}

// ---- Questions and explanations ----

// Question is a user question (Definition 1): an aggregate query, one of
// its result tuples, and a direction.
type Question = explain.UserQuestion

// Direction of the user's surprise.
type Direction = explain.Direction

// Directions.
const (
	Low  = explain.Low
	High = explain.High
)

// Explanation is a ranked counterbalance (Definition 7 plus score
// breakdown).
type Explanation = explain.Explanation

// ExplainOptions configures explanation generation. Parallelism fans
// the (relevant pattern, refinement) pairs across a worker pool; the
// ranked result is identical to the sequential run.
type ExplainOptions = explain.Options

// ExplainStats reports the work performed by a generation run.
type ExplainStats = explain.Stats

// QuestionFromRow builds a question from one row of an aggregate query
// result whose schema is (groupBy..., agg).
func QuestionFromRow(groupBy []string, agg AggSpec, row Tuple, dir Direction) (Question, error) {
	return explain.QuestionFromRow(groupBy, agg, row, dir)
}

// Explain generates the top-k counterbalancing explanations using the
// bound-pruned generator.
func Explain(q Question, t *Table, patterns []*MinedPattern, opt ExplainOptions) ([]Explanation, *ExplainStats, error) {
	return explain.GenOpt(q, t, patterns, opt)
}

// ExplainNaive generates explanations with the brute-force Algorithm 1.
func ExplainNaive(q Question, t *Table, patterns []*MinedPattern, opt ExplainOptions) ([]Explanation, *ExplainStats, error) {
	return explain.GenNaive(q, t, patterns, opt)
}

// BatchItem is the outcome of one question of a batch: its ranked
// explanations and stats, or the per-item error that prevented them.
type BatchItem = explain.BatchItem

// ExplainBatch answers many questions over one relation and pattern set
// in a single pass. Each question's output is byte-identical to calling
// Explain on it alone, but the batch shares one relevance index and one
// group-by cache holding every γ aggregate result, and runs on one
// worker pool of opt.Parallelism: the questions fan across it and each
// question's (pattern, refinement) pairs nest in it. Results and stats
// align positionally with qs. Questions that fail individually
// contribute a nil row plus a wrapped, indexed error in the joined
// error; the other questions still get answers. Use ExplainBatchItems
// for structured per-item errors.
func ExplainBatch(qs []Question, t *Table, patterns []*MinedPattern, opt ExplainOptions) ([][]Explanation, []*ExplainStats, error) {
	return batchResults(explain.GenerateBatch(qs, t, patterns, opt))
}

// batchResults splits batch items into ExplainBatch's aligned results
// and joined, indexed error.
func batchResults(items []BatchItem) ([][]Explanation, []*ExplainStats, error) {
	expls := make([][]Explanation, len(items))
	stats := make([]*ExplainStats, len(items))
	var errs []error
	for i, it := range items {
		expls[i], stats[i] = it.Explanations, it.Stats
		if it.Err != nil {
			errs = append(errs, fmt.Errorf("question %d: %w", i, it.Err))
		}
	}
	return expls, stats, errors.Join(errs...)
}

// ExplainBatchItems is ExplainBatch returning one BatchItem per
// question, so callers (like the HTTP batch endpoint) can map each
// question's error to a per-item status instead of a joined error.
func ExplainBatchItems(qs []Question, t *Table, patterns []*MinedPattern, opt ExplainOptions) []BatchItem {
	return explain.GenerateBatch(qs, t, patterns, opt)
}

// Explainer answers many questions over one relation and pattern set,
// sharing the group-by results across questions in a sharded cache with
// duplicate-computation suppression. Safe for concurrent use.
type Explainer = explain.Explainer

// NewExplainer builds a warm-cache explainer; opt supplies defaults for
// every question.
func NewExplainer(t *Table, patterns []*MinedPattern, opt ExplainOptions) *Explainer {
	return explain.NewExplainer(t, patterns, opt)
}

// ---- Baseline explainer (Appendix A.2) ----

// BaselineExplanation is a counterbalance from the question's own query
// result, scored without patterns.
type BaselineExplanation = baseline.Explanation

// BaselineOptions configures the baseline explainer.
type BaselineOptions = baseline.Options

// ExplainBaseline runs the pattern-blind comparison method.
func ExplainBaseline(q Question, t *Table, opt BaselineOptions) ([]BaselineExplanation, error) {
	return baseline.Explain(q, t, opt)
}

// ---- Distance metrics ----

// Metric supplies per-attribute distance functions and weights
// (Definition 9).
type Metric = distance.Metric

// DistanceFunc measures the distance of two attribute values in [0, 1].
type DistanceFunc = distance.Func

// Distance function implementations.
type (
	// CategoricalDistance: 0 if equal, 1 otherwise.
	CategoricalDistance = distance.Categorical
	// NumericDistance: |a−b|/Scale capped at 1.
	NumericDistance = distance.Numeric
	// ClassedDistance: domain partitioned into classes.
	ClassedDistance = distance.Classed
)

// NewMetric returns a metric with categorical distances and equal
// weights.
func NewMetric() *Metric { return distance.NewMetric() }

// ---- HTTP service ----

// NewHTTPHandler returns the CAPE HTTP API (tables / mine / explain /
// append) as an http.Handler, ready to mount in any server. See cmd/capeserver for a standalone binary.
func NewHTTPHandler() *server.Server { return server.New() }

// HTTPServer is the CAPE HTTP API handler type.
type HTTPServer = server.Server

// ---- Synthetic datasets ----

// DBLPConfig parameterizes the synthetic bibliography generator.
type DBLPConfig = dataset.DBLPConfig

// CrimeConfig parameterizes the synthetic crime-report generator.
type CrimeConfig = dataset.CrimeConfig

// GroundTruth records an injected outlier/counterbalance pair.
type GroundTruth = dataset.GroundTruth

// GenerateDBLP produces a synthetic Pub(author, pubid, year, venue)
// relation with planted constant/linear publication trends.
func GenerateDBLP(cfg DBLPConfig) *Table { return dataset.GenerateDBLP(cfg) }

// GenerateCrime produces a synthetic crime relation with 3–11 attributes
// and built-in functional dependencies.
func GenerateCrime(cfg CrimeConfig) *Table { return dataset.GenerateCrime(cfg) }

// RunningExample builds the paper's introduction scenario (AX's missing
// SIGKDD 2007 papers counterbalanced by ICDE 2007).
func RunningExample() *Table { return dataset.RunningExample() }

// InjectCounterbalance plants a ground-truth outlier/counterbalance pair
// for precision experiments (Section 5.3).
func InjectCounterbalance(t *Table, attrs []string, outlier, counter Tuple, delta int, dir string) (*Table, GroundTruth, error) {
	return dataset.InjectCounterbalance(t, attrs, outlier, counter, delta, dir)
}

// ---- Question queries ----

// ParseAggregateQuery extracts the (group-by attributes, aggregate) pair
// from a query of the shape a user question requires, e.g.
// "SELECT author, year, venue, count(*) FROM pub GROUP BY author, year,
// venue".
func ParseAggregateQuery(query string) (groupBy []string, agg AggSpec, err error) {
	return sql.Parse(query)
}

// ---- Ground-truth precision experiments (Section 5.3) ----

// SiteSpec describes where ground-truth counterbalances may be planted.
type SiteSpec = exp.SiteSpec

// PrecisionConfig parameterizes a ground-truth precision run.
type PrecisionConfig = exp.PrecisionConfig

// PrecisionResult reports recovered ground truths.
type PrecisionResult = exp.PrecisionResult

// RunPrecisionExperiment plants outlier/counterbalance pairs, re-mines,
// and measures how many planted counterbalances appear in the top-K
// explanations (the Figure-7 methodology).
func RunPrecisionExperiment(cfg PrecisionConfig) (PrecisionResult, error) {
	return exp.RunPrecision(cfg)
}
