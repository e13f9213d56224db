package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cape/internal/pattern"
	"cape/internal/server"
	"cape/internal/sql"
	"cape/internal/value"
)

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

// printLines prints a ranked list, one numbered line per entry.
func printLines[T fmt.Stringer](list []T) {
	for i, e := range list {
		fmt.Printf("%3d. %s\n", i+1, e)
	}
}

// explainVerb answers one question with a pattern set.
func explainVerb(fs *flag.FlagSet) func() error {
	t := targetFlags(fs)
	ps := patternSetFlags(fs)
	groupBy := fs.String("groupby", "", "comma-separated group-by attributes (required, unless -query gives them)")
	aggregate := fs.String("aggregate", "", `aggregate, e.g. "sum(x)" (default count(*))`)
	query := fs.String("query", "", "aggregate SQL query defining the question, e.g. \"SELECT a, b, count(*) FROM t GROUP BY a, b\" (alternative to -groupby and -aggregate)")
	tuple := fs.String("tuple", "", "comma-separated group-by values of the question tuple (required)")
	dir := fs.String("dir", "low", "direction: low or high")
	k := fs.Int("k", 10, "number of explanations to return")
	numeric := numericFlag(fs)
	return func() error {
		if *query != "" {
			g, agg, err := sql.Parse(*query)
			if err != nil {
				return err
			}
			*groupBy, *aggregate = strings.Join(g, ","), agg.String()
		}
		req := server.ExplainRequest{
			GroupBy: splitList(*groupBy), Aggregate: *aggregate, Tuple: splitList(*tuple), Dir: *dir,
			K: *k, Parallelism: *ps.parallel, Numeric: *numeric,
		}
		if len(req.GroupBy) == 0 || len(req.Tuple) == 0 {
			return fmt.Errorf("-groupby and -tuple are required")
		}
		c, err := t.open(fs, false, "patterns")
		if err != nil {
			return err
		}
		if req.Patterns, err = ps.resolve(c, t, req.GroupBy); err != nil {
			return err
		}
		var out struct {
			Question     string
			Stats        struct{ RelevantPatterns, Candidates, PrunedRefinements int }
			Explanations []explanation
		}
		body, err := c.call("/v1/explain", req, &out)
		return t.emit(body, err, func() error {
			fmt.Printf("%d relevant patterns, %d candidates, %d refinements pruned\n",
				out.Stats.RelevantPatterns, out.Stats.Candidates, out.Stats.PrunedRefinements)
			fmt.Printf("question: %s\n\n", out.Question)
			if len(out.Explanations) == 0 {
				fmt.Println("no explanations")
			}
			printLines(out.Explanations)
			return nil
		})
	}
}

// explanation decodes one ranked counterbalance of a /v1/explain answer.
type explanation struct {
	Score     float64
	Narration string
}

func (e explanation) String() string { return fmt.Sprintf("[%.2f] %s", e.Score, e.Narration) }

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
