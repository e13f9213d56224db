package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/value"
)

// The oracle is the paper's definitions run naively: a dense table, a
// cold ARPMine at the epoch the answer was given at, and GenNaive with
// the linear relevance scan. Every layer the deployment adds on top
// (segments, maintenance, index, caches, shards) must not change a byte
// of the answer.

// explanationJSON mirrors the server's wire form of one explanation, so
// library answers and oracle answers render exactly like HTTP ones.
type explanationJSON struct {
	Attrs     []string `json:"attrs"`
	Tuple     []string `json:"tuple"`
	AggValue  string   `json:"aggValue"`
	Predicted float64  `json:"predicted"`
	Deviation float64  `json:"deviation"`
	Distance  float64  `json:"distance"`
	Score     float64  `json:"score"`
	Relevant  string   `json:"relevantPattern"`
	Refined   string   `json:"refinedPattern"`
	SortKey   string   `json:"sortKey"`
	Narration string   `json:"narration"`
}

// renderAnswer renders an answer in the server's response shape, minus
// the per-request work counters; compare answers by their canonical form.
func renderAnswer(q explain.UserQuestion, expls []explain.Explanation) ([]byte, error) {
	out := make([]explanationJSON, 0, len(expls))
	for _, e := range expls {
		tuple := make([]string, len(e.Tuple))
		for i, v := range e.Tuple {
			tuple[i] = v.String()
		}
		out = append(out, explanationJSON{
			Attrs: e.Attrs, Tuple: tuple, AggValue: e.AggValue.String(),
			Predicted: e.Predicted, Deviation: e.Deviation, Distance: e.Distance, Score: e.Score,
			Relevant: e.Relevant.String(), Refined: e.Refined.String(),
			SortKey:   e.Refined.Key() + "\x1e" + e.Tuple.Key(),
			Narration: e.Narrate(q),
		})
	}
	return json.Marshal(map[string]interface{}{"question": q.String(), "explanations": out})
}

// canonical re-renders a JSON answer with sorted keys, compact, and
// every "stats" member (deployment-specific work counters) removed.
func canonical(raw []byte) ([]byte, error) {
	var v interface{}
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	stripStats(v)
	return json.Marshal(v)
}

func stripStats(v interface{}) {
	switch t := v.(type) {
	case map[string]interface{}:
		delete(t, "stats")
		for _, c := range t {
			stripStats(c)
		}
	case []interface{}:
		for _, c := range t {
			stripStats(c)
		}
	}
}

// oracle replays the run's inputs into a dense table.
type oracle struct {
	tab     *engine.Table
	batches [][]value.Tuple
	applied int
	qs      []question
	// admitted, for the sharded deployment, maps the number of applied
	// batches to the pattern keys the coordinator served at that point.
	// The oracle then mines with the global gates loosened, as the shards
	// do, serves exactly those keys, and reports where they differ from
	// the keys the real gates admit on one node — so an answer is judged
	// on its own, and an admission defect is named as one.
	admitted map[int]map[string]bool
	notes    []string
}

func newOracle(seed int64, rows int, batches [][]value.Tuple, qs []question, admitted map[int]map[string]bool) (*oracle, error) {
	tab, _, err := denseTable(seed, rows, 0)
	return &oracle{tab: tab, batches: batches, qs: qs, admitted: admitted}, err
}

// keyInF reports whether the shard key is one of the pattern's
// partition attributes: the patterns a sharded deployment can serve.
func keyInF(m *pattern.Mined) bool {
	for _, a := range m.Pattern.F {
		if a == shardKey {
			return true
		}
	}
	return false
}

// mine is a cold ARPMine over the table as it stands, and the patterns
// the deployment should serve from it.
func (o *oracle) mine() ([]*pattern.Mined, error) {
	opt := mineOptions()
	if o.admitted == nil {
		res, err := mining.ARPMine(o.tab, opt)
		if err != nil {
			return nil, err
		}
		return res.Patterns, nil
	}
	th := opt.Thresholds
	opt.Thresholds.Lambda, opt.Thresholds.GlobalSupport = 0, 1
	res, err := mining.ARPMine(o.tab, opt)
	if err != nil {
		return nil, err
	}
	adm := o.admitted[o.applied]
	var served []*pattern.Mined
	var extra, missing []string
	for _, m := range res.Patterns {
		key := m.Pattern.Key()
		cold := keyInF(m) && m.GlobalSupport() >= th.GlobalSupport && m.Confidence >= th.Lambda
		switch {
		case adm[key]:
			served = append(served, m)
			if !cold {
				extra = append(extra, key)
			}
		case cold:
			missing = append(missing, key)
		}
	}
	if len(extra)+len(missing) > 0 {
		o.notes = append(o.notes, fmt.Sprintf(
			"DEFECT in the system, not counted: after %d batches the coordinator serves %v beyond, and lacks %v of, the patterns a cold single-node ARPMine admits",
			o.applied, extra, missing))
	}
	return served, nil
}

// check re-derives every kept answer and returns how many differ. It
// visits the epochs in ascending order, mining cold once per epoch.
func (o *oracle) check(kept []keptAnswer) (wrong int, firstDiff string, err error) {
	sort.SliceStable(kept, func(a, b int) bool { return kept[a].applied < kept[b].applied })
	var pats []*pattern.Mined
	mined := -1
	for _, k := range kept {
		for o.applied < k.applied {
			if err := o.tab.AppendRows(o.batches[o.applied]); err != nil {
				return 0, "", err
			}
			o.applied++
		}
		if mined != o.applied {
			if pats, err = o.mine(); err != nil {
				return 0, "", err
			}
			mined = o.applied
		}
		uq, err := resolve(o.tab, o.qs[k.q])
		if err != nil {
			return 0, "", err
		}
		expls, _, err := explain.GenNaive(uq, o.tab, pats, explain.Options{K: explainK, LinearScan: true})
		if err != nil {
			return 0, "", err
		}
		want, err := renderAnswer(uq, expls)
		if err == nil {
			want, err = canonical(want)
		}
		if err != nil {
			return 0, "", err
		}
		got, err := canonical(k.body)
		if err != nil || !bytes.Equal(want, got) {
			wrong++
			if firstDiff == "" {
				firstDiff = fmt.Sprintf("question %d after %d batches:\n got  %s\n want %s", k.q, k.applied, k.body, want)
			}
		}
	}
	return wrong, firstDiff, nil
}

// jsonClose reports whether two JSON documents have the same shape and
// strings, and numbers equal to a relative tolerance.
func jsonClose(a, b []byte, tol float64) bool {
	var va, vb interface{}
	if json.Unmarshal(a, &va) != nil || json.Unmarshal(b, &vb) != nil {
		return false
	}
	var eq func(x, y interface{}) bool
	eq = func(x, y interface{}) bool {
		switch xt := x.(type) {
		case map[string]interface{}:
			yt, ok := y.(map[string]interface{})
			if !ok || len(xt) != len(yt) {
				return false
			}
			for k, xv := range xt {
				yv, ok := yt[k]
				if !ok || !eq(xv, yv) {
					return false
				}
			}
			return true
		case []interface{}:
			yt, ok := y.([]interface{})
			if !ok || len(xt) != len(yt) {
				return false
			}
			for i := range xt {
				if !eq(xt[i], yt[i]) {
					return false
				}
			}
			return true
		case float64:
			yt, ok := y.(float64)
			return ok && math.Abs(xt-yt) <= tol*math.Max(math.Abs(xt), math.Abs(yt))
		default:
			return x == y
		}
	}
	return eq(va, vb)
}
