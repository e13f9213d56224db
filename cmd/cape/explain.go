package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"cape/internal/pattern"
	"cape/internal/server"
	"cape/internal/sql"
	"cape/internal/value"
)

// ask holds the flags of a one-question command: where it runs, the
// question, and — for the pattern-based commands — the pattern set.
type ask struct {
	*target
	groupBy, aggregate, tuple, dir *string
	k                              *int
	ps                             *patternSet // nil: the question runs against -table
}

func askFlags(fs *flag.FlagSet, withSet bool) *ask {
	a := &ask{
		target:    targetFlags(fs),
		groupBy:   fs.String("groupby", "", "comma-separated group-by attributes (required)"),
		aggregate: fs.String("aggregate", "", `aggregate, e.g. "sum(x)" (default count(*))`),
		tuple:     fs.String("tuple", "", "comma-separated group-by values of the question tuple (required)"),
		dir:       fs.String("dir", "low", "direction: low or high"),
		k:         fs.Int("k", 10, "number of explanations to return"),
	}
	if withSet {
		a.ps = patternSetFlags(fs)
	}
	return a
}

// run completes req with the question and the pattern set or table,
// sends it to path and decodes a successful answer into out; the body
// comes back either way.
func (a *ask) run(fs *flag.FlagSet, path string, req server.ExplainRequest, out interface{}) ([]byte, error) {
	req.GroupBy, req.Aggregate, req.Tuple, req.Dir, req.K =
		splitList(*a.groupBy), *a.aggregate, splitList(*a.tuple), *a.dir, *a.k
	if len(req.GroupBy) == 0 || len(req.Tuple) == 0 {
		return nil, fmt.Errorf("-groupby and -tuple are required")
	}
	c, err := a.open(fs, a.ps == nil, "patterns")
	if err != nil {
		return nil, err
	}
	if a.ps == nil {
		req.Table = *a.table
	} else if req.Patterns, err = a.ps.resolve(c, a.target, req.GroupBy); err != nil {
		return nil, err
	} else {
		req.Parallelism = *a.ps.parallel
	}
	return c.call(path, req, out)
}

// patternSet holds the flags that pick a command's pattern set.
type patternSet struct {
	set, patterns *string
	mine          func() server.MineRequest
	parallel      *int
}

func patternSetFlags(fs *flag.FlagSet) *patternSet {
	ps := &patternSet{
		set:      fs.String("set", "", "server-side pattern set id, as printed by 'cape mine'"),
		patterns: fs.String("patterns", "", "patterns JSON from 'cape mine -o' (in-process; default: mine a set on the fly)"),
	}
	ps.mine, ps.parallel = mineFlags(fs)
	return ps
}

// resolve returns the pattern set id: -set, else the -patterns file
// registered with the in-process server, else a set mined on the fly
// over -table (over attrs, when the mining flags name no attributes).
func (ps *patternSet) resolve(c *client, t *target, attrs []string) (string, error) {
	switch {
	case *ps.set != "":
		return *ps.set, nil
	case *ps.patterns != "":
		mined, err := pattern.ReadJSONFile(*ps.patterns)
		if err != nil {
			return "", err
		}
		id, _ := c.srv.AddPatternSetEntry(&pattern.StoreEntry{Table: *t.table, Patterns: mined})
		return id, nil
	}
	if *t.table == "" {
		return "", fmt.Errorf("-set or -table is required with -server")
	}
	req := ps.mine()
	req.Table = *t.table
	if req.Attributes == nil {
		req.Attributes = attrs
	}
	var set struct {
		ID       string
		Patterns int
	}
	if _, err := c.call("/v1/mine", req, &set); err != nil {
		return "", err
	}
	fmt.Fprintf(os.Stderr, "mined %d patterns on the fly\n", set.Patterns)
	return set.ID, nil
}

// numericFlag registers -numeric, whose "attr=scale" pairs become the
// request's numeric distance scales.
func numericFlag(fs *flag.FlagSet) *map[string]float64 {
	m := new(map[string]float64)
	fs.Func("numeric", "comma-separated attr=scale pairs for numeric distances, e.g. year=4", func(spec string) (err error) {
		*m, err = parseNumeric(spec)
		return err
	})
	return m
}

func parseNumeric(spec string) (map[string]float64, error) {
	m := map[string]float64{}
	for _, part := range splitList(spec) {
		attr, scale, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -numeric entry %q (want attr=scale)", part)
		}
		f, ok := value.Parse(scale).AsFloat()
		if !ok || f <= 0 {
			return nil, fmt.Errorf("bad scale in -numeric entry %q", part)
		}
		m[attr] = f
	}
	return m, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// printList prints an answer's question and its ranked list, or none
// when the list is empty.
func printList[T fmt.Stringer](question string, list []T, none string) error {
	fmt.Printf("question: %s\n\n", question)
	if len(list) == 0 && none != "" {
		fmt.Println(none)
	}
	printLines(list)
	return nil
}

// printLines prints a ranked list, one numbered line per entry.
func printLines[T fmt.Stringer](list []T) {
	for i, e := range list {
		fmt.Printf("%3d. %s\n", i+1, e)
	}
}

// rowLabel renders a result row as "(a=1, b=x, agg=7)".
func rowLabel[V any](attrs []string, tuple []V, agg any) string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, a := range attrs {
		fmt.Fprintf(&sb, "%s=%v, ", a, tuple[i])
	}
	fmt.Fprintf(&sb, "agg=%v)", agg)
	return sb.String()
}

// explainVerb answers one question with a pattern set.
func explainVerb(fs *flag.FlagSet) func() error {
	a := askFlags(fs, true)
	query := fs.String("query", "", "aggregate SQL query defining the question, e.g. \"SELECT a, b, count(*) FROM t GROUP BY a, b\" (alternative to -groupby and -aggregate)")
	numeric := numericFlag(fs)
	return func() error {
		if *query != "" {
			stmt, err := sql.Parse(*query)
			if err != nil {
				return err
			}
			groupBy, agg, err := sql.AggregateQuery(stmt)
			if err != nil {
				return err
			}
			*a.groupBy, *a.aggregate = strings.Join(groupBy, ","), agg.String()
		}
		var out struct {
			Question     string
			Stats        struct{ RelevantPatterns, Candidates, PrunedRefinements int }
			Explanations []explanation
		}
		body, err := a.run(fs, "/v1/explain", server.ExplainRequest{Numeric: *numeric}, &out)
		return a.emit(body, err, func() error {
			fmt.Printf("%d relevant patterns, %d candidates, %d refinements pruned\n",
				out.Stats.RelevantPatterns, out.Stats.Candidates, out.Stats.PrunedRefinements)
			return printList(out.Question, out.Explanations, "no explanations")
		})
	}
}

// explanation decodes one ranked counterbalance of a /v1/explain answer.
type explanation struct {
	Score     float64
	Narration string
}

func (e explanation) String() string { return fmt.Sprintf("[%.2f] %s", e.Score, e.Narration) }

// baselineVerb runs the Appendix-A.2 baseline for comparison.
func baselineVerb(fs *flag.FlagSet) func() error {
	a := askFlags(fs, false)
	numeric := numericFlag(fs)
	return func() error {
		var out struct {
			Question     string
			Explanations []baselineRow
		}
		body, err := a.run(fs, "/v1/baseline", server.ExplainRequest{Numeric: *numeric}, &out)
		return a.emit(body, err, func() error { return printList(out.Question, out.Explanations, "") })
	}
}

// baselineRow decodes one baseline explanation.
type baselineRow struct {
	Attrs            []string
	Tuple            value.Tuple
	AggValue         value.V
	Deviation, Score float64
}

func (e baselineRow) String() string {
	return fmt.Sprintf("%s score=%.2f dev=%+.2f", rowLabel(e.Attrs, e.Tuple, e.AggValue), e.Score, e.Deviation)
}

// explainBatchVerb answers a JSONL file of questions in one
// /v1/explain/batch request. Unanswerable questions are per-item errors;
// so are malformed lines, sent as empty questions to keep the items
// aligned with the file.
func explainBatchVerb(fs *flag.FlagSet) func() error {
	t := targetFlags(fs)
	ps := patternSetFlags(fs)
	questions := fs.String("questions", "", "JSONL question file, one {groupBy,aggregate,tuple,dir} object per line (required)")
	k := fs.Int("k", 10, "number of explanations per question")
	numeric := numericFlag(fs)
	return func() error {
		if *questions == "" {
			return fmt.Errorf("-questions is required")
		}
		specs, lineErrs, err := readQuestionJSONL(*questions)
		if err != nil {
			return err
		}
		req := server.ExplainBatchRequest{Questions: specs, K: *k, Parallelism: *ps.parallel, Numeric: *numeric}
		c, err := t.open(fs, false, "patterns")
		if err != nil {
			return err
		}
		if req.Patterns, err = ps.resolve(c, t, nil); err != nil {
			return err
		}
		var out struct {
			OK, Failed int
			Items      []struct {
				Index           int
				Question, Error string
				Explanations    []explanation
			}
		}
		body, err := c.call("/v1/explain/batch", req, &out)
		for i, e := range lineErrs {
			if e != nil && *t.json {
				fmt.Fprintf(os.Stderr, "[%d] error: %v\n", i, e)
			}
		}
		return t.emit(body, err, func() error {
			fmt.Printf("%d/%d questions answered\n", out.OK, out.OK+out.Failed)
			for _, it := range out.Items {
				switch {
				case lineErrs[it.Index] != nil:
					fmt.Printf("\n[%d] error: %v\n", it.Index, lineErrs[it.Index])
				case it.Error != "":
					fmt.Printf("\n[%d] error: %s\n", it.Index, it.Error)
				default:
					fmt.Printf("\n[%d] %s\n", it.Index, it.Question)
					printLines(it.Explanations)
				}
			}
			return nil
		})
	}
}

// readQuestionJSONL reads one question per non-blank line; a line that
// does not decode yields an empty spec and its error.
func readQuestionJSONL(path string) (specs []server.QuestionSpec, errs []error, err error) {
	err = readJSONL(path, func(line int, raw []byte) error {
		var spec server.QuestionSpec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		err := dec.Decode(&spec)
		if err != nil {
			spec, err = server.QuestionSpec{}, fmt.Errorf("line %d: %v", line, err)
		}
		specs, errs = append(specs, spec), append(errs, err)
		return nil
	})
	return specs, errs, err
}

// generalizeVerb prints drill-up explanations: coarser aggregates
// deviating in the question's own direction.
func generalizeVerb(fs *flag.FlagSet) func() error {
	a := askFlags(fs, true)
	return func() error {
		var out struct {
			Question        string
			Generalizations []generalization
		}
		body, err := a.run(fs, "/v1/generalize", server.ExplainRequest{}, &out)
		return a.emit(body, err, func() error {
			return printList(out.Question, out.Generalizations, "no coarser-granularity deviation in the question's direction")
		})
	}
}

// generalization decodes one drill-up explanation.
type generalization struct {
	Attrs, Tuple         []string
	AggValue, Pattern    string
	Predicted, Deviation float64
}

func (g generalization) String() string {
	return fmt.Sprintf("%s dev=%+.2f from its trend (%.2f) via %s",
		rowLabel(g.Attrs, g.Tuple, g.AggValue), g.Deviation, g.Predicted, g.Pattern)
}

// interveneVerb runs the provenance-restricted intervention explainer.
func interveneVerb(fs *flag.FlagSet) func() error {
	a := askFlags(fs, false)
	expected := fs.Float64("expected", 0, "target aggregate value (default: average of the other groups)")
	return func() error {
		var out struct {
			Question      string
			Interventions []intervention
		}
		body, err := a.run(fs, "/v1/intervene", server.ExplainRequest{Expected: *expected}, &out)
		if se := (*statusError)(nil); errors.As(err, &se) && se.code == http.StatusUnprocessableEntity {
			// A low question: interventions only explain away high outcomes.
			return a.emit(body, nil, func() error {
				fmt.Printf("%s\n(try 'cape explain' — counterbalance explanations handle low outcomes)\n", se.msg)
				return nil
			})
		}
		return a.emit(body, err, func() error {
			return printList(out.Question, out.Interventions, "the value is not above the expected level; nothing to explain away")
		})
	}
}

// intervention decodes one provenance predicate.
type intervention struct {
	Attr                string
	Val                 value.V
	Removed             int
	NewValue, Influence float64
}

func (e intervention) String() string {
	return fmt.Sprintf("%s=%s: removing %d tuples lowers the aggregate to %.2f (influence %.2f)",
		e.Attr, e.Val, e.Removed, e.NewValue, e.Influence)
}
