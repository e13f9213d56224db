package cape

import (
	"errors"

	"cape/internal/pattern"
)

// Session is the high-level entry point: it holds a relation, the
// patterns mined over it, and a distance metric, and answers user
// questions through one warm Explainer, so questions share the
// groupings they read. A Session is safe for concurrent reads after
// Mine has completed.
type Session struct {
	table     *Table
	patterns  []*MinedPattern
	metric    *Metric
	explainer *Explainer
	mining    *MiningResult
	mineOpt   MiningOptions
	mined     bool
	autoWiden bool
}

// NewSession wraps a relation. Mine must be called before Explain.
func NewSession(t *Table) *Session {
	return &Session{table: t, metric: NewMetric()}
}

// Table returns the session's relation.
func (s *Session) Table() *Table { return s.table }

// SetMetric installs the distance metric used for scoring explanations.
// It reaches the Explainer as a per-call option, so its retained
// groupings stay warm.
func (s *Session) SetMetric(m *Metric) *Session {
	s.metric = m
	return s
}

// SetAutoWidenPatternSize lets Ask re-run mining with a larger maximum
// pattern size ψ when a question's group-by is wider than the mined
// patterns can generalize — the paper's Section-4.1 suggestion ("start
// with a lower threshold and rerun pattern mining with a larger threshold
// if a user question with a large |G| is asked").
func (s *Session) SetAutoWidenPatternSize(on bool) *Session {
	s.autoWiden = on
	return s
}

// Mine discovers the globally-holding ARPs with the ARP-MINE algorithm
// and stores them in the session.
func (s *Session) Mine(opt MiningOptions) error {
	res, err := MinePatterns(s.table, opt)
	if err != nil {
		return err
	}
	s.mining = res
	s.SetPatterns(res.Patterns)
	s.mineOpt = opt
	if s.mineOpt.MaxPatternSize == 0 {
		s.mineOpt.MaxPatternSize = 4 // the miner's default ψ
	}
	s.mined = true
	return nil
}

// Patterns returns the mined patterns (nil before Mine).
func (s *Session) Patterns() []*MinedPattern { return s.patterns }

// MiningResult returns the full mining result with timing and candidate
// statistics (nil before Mine).
func (s *Session) MiningResult() *MiningResult { return s.mining }

// SetPatterns installs externally mined or filtered patterns, e.g. to
// replay explanation generation over a pattern subset. The session's
// one Explainer answers from them: it keeps the groupings it retained,
// which depend on neither the patterns nor the metric.
func (s *Session) SetPatterns(ps []*MinedPattern) {
	s.patterns = ps
	switch {
	case ps == nil:
	case s.explainer == nil:
		s.explainer = NewExplainer(s.table, ps, ExplainOptions{})
	default:
		s.explainer.SetPatterns(ps)
	}
}

// errNoPatterns is the error of a question asked before Mine.
var errNoPatterns = errors.New("cape: Mine must run before explaining (or install patterns with SetPatterns)")

// Explain answers a user question with the top-k counterbalancing
// explanations; set fields of opt override the session's defaults.
func (s *Session) Explain(q Question, opt ExplainOptions) ([]Explanation, *ExplainStats, error) {
	if s.patterns == nil {
		return nil, nil, errNoPatterns
	}
	return s.explainer.ExplainOpts(q, s.withMetric(opt))
}

// ExplainBatch answers a batch of questions in one pass, sharing the
// relevant-pattern scan and group-by results across the batch. Each
// question's answer is identical to Session.Explain on it alone;
// results align positionally with qs and per-question failures are
// wrapped with their index in the joined error.
func (s *Session) ExplainBatch(qs []Question, opt ExplainOptions) ([][]Explanation, []*ExplainStats, error) {
	if s.patterns == nil {
		return nil, nil, errNoPatterns
	}
	return batchResults(s.explainer.ExplainBatchOpts(qs, s.withMetric(opt)))
}

// withMetric fills in the session's metric unless opt sets its own.
func (s *Session) withMetric(opt ExplainOptions) ExplainOptions {
	if opt.Metric == nil {
		opt.Metric = s.metric
	}
	return opt
}

// Ask is a convenience wrapper that builds the question from its parts
// and explains it. The Explainer resolves the question: it finds the
// tuple in the aggregate query's result, read from the groupings it
// retains, so asking again after an append folds only the new rows.
func (s *Session) Ask(groupBy []string, agg AggSpec, values Tuple, dir Direction, opt ExplainOptions) ([]Explanation, *ExplainStats, error) {
	if s.patterns == nil {
		return nil, nil, errNoPatterns
	}
	q, err := s.explainer.Question(groupBy, agg, values, dir)
	if err != nil {
		return nil, nil, err
	}

	// The widest relevant pattern uses all of G; if mining stopped at a
	// smaller ψ, optionally re-mine so those patterns exist (Section 4.1).
	if s.autoWiden && s.mined && s.mineOpt.MaxPatternSize < len(groupBy) {
		widened := s.mineOpt
		widened.MaxPatternSize = len(groupBy)
		if err := s.Mine(widened); err != nil {
			return nil, nil, err
		}
	}
	return s.Explain(q, opt)
}

// SavePatterns writes the session's mined patterns (with their local
// models) to a JSON file, for the offline/online split.
func (s *Session) SavePatterns(path string) error {
	if s.patterns == nil {
		return errors.New("cape: no patterns to save (run Mine first)")
	}
	return pattern.WriteJSONFile(path, s.patterns)
}

// LoadPatterns installs patterns previously written by SavePatterns (or
// by `cape mine -o`), making the session ready to Explain without
// re-mining.
func (s *Session) LoadPatterns(path string) error {
	ps, err := pattern.ReadJSONFile(path)
	if err != nil {
		return err
	}
	s.SetPatterns(ps)
	return nil
}
