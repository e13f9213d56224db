package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"

	"cape/internal/dataset"
	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/server"
)

// generateVerb writes a synthetic dataset as CSV.
func generateVerb(fs *flag.FlagSet) func() error {
	ds := fs.String("dataset", "dblp", "dataset family: dblp or crime")
	rows := fs.Int("rows", 10000, "number of rows")
	attrs := fs.Int("attrs", 7, "number of attributes (crime only, 3-11)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("o", "", "output CSV path (default stdout)")
	return func() error {
		var tab *engine.Table
		switch *ds {
		case "dblp":
			tab = dataset.GenerateDBLP(dataset.DBLPConfig{Rows: *rows, Seed: *seed})
		case "crime":
			tab = dataset.GenerateCrime(dataset.CrimeConfig{Rows: *rows, Seed: *seed, NumAttrs: *attrs})
		default:
			return fmt.Errorf("unknown dataset %q (want dblp or crime)", *ds)
		}
		if *out == "" {
			return tab.WriteCSV(os.Stdout)
		}
		err := tab.WriteCSVFile(*out)
		if err == nil {
			fmt.Printf("wrote %d rows, %d attributes to %s\n", tab.NumRows(), len(tab.Schema()), *out)
		}
		return err
	}
}

// mineFlags registers the mining flags and returns a builder of their
// /v1/mine request, plus -parallel, which every request carries.
func mineFlags(fs *flag.FlagSet) (func() server.MineRequest, *int) {
	psi := fs.Int("psi", 3, "maximum pattern size ψ (|F ∪ V|)")
	theta := fs.Float64("theta", 0.5, "local model quality threshold θ")
	localSupp := fs.Int("localsupp", 5, "local support threshold δ")
	lambda := fs.Float64("lambda", 0.5, "global confidence threshold λ")
	globalSupp := fs.Int("globalsupp", 5, "global support threshold Δ")
	attrs := fs.String("attrs", "", "comma-separated attributes to mine over (default: all)")
	aggs := fs.String("aggs", "count", "comma-separated aggregate functions (count,sum,min,max,avg)")
	parallel := fs.Int("parallel", 0, "worker goroutines per request, for mining and explanation generation (0: the server's default, which mines at its GOMAXPROCS)")
	return func() server.MineRequest {
		return server.MineRequest{
			Attributes: splitList(*attrs), Aggregates: splitList(*aggs),
			MaxPatternSize: *psi, Parallelism: *parallel,
			Theta: *theta, LocalSupport: *localSupp, Lambda: *lambda, GlobalSupport: *globalSupp,
		}
	}, parallel
}

// mineVerb mines a pattern set and prints it; in-process, -o and -out
// save it as a patterns file or a pattern store.
func mineVerb(fs *flag.FlagSet) func() error {
	t := targetFlags(fs)
	out := fs.String("o", "", "write the mined patterns as JSON to this path")
	outDir := fs.String("out", "", "write the pattern set into this pattern-store directory (one versioned JSON file per table; load with capeserver -patterns-dir)")
	mine, _ := mineFlags(fs)
	return func() error {
		c, err := t.open(fs, true, "o", "out")
		if err != nil {
			return err
		}
		req := mine()
		req.Table = *t.table
		var set struct {
			ID, Table string
			Patterns  int
		}
		body, err := c.call("/v1/mine", req, &set)
		if err := t.emit(body, err, func() error {
			fmt.Printf("mined pattern set %s on table %q: %d patterns\n", set.ID, set.Table, set.Patterns)
			var list struct {
				Patterns []struct {
					Pattern    string
					Confidence float64
				}
			}
			body, err := c.send(http.MethodGet, "/v1/patterns/"+url.PathEscape(set.ID), "", nil)
			if err == nil {
				err = json.Unmarshal(body, &list)
			}
			for _, p := range list.Patterns {
				fmt.Printf("  %-55s conf=%.2f\n", p.Pattern, p.Confidence)
			}
			return err
		}); err != nil || c.srv == nil {
			return err
		}
		entry, _ := c.srv.PatternSetEntry(set.ID)
		if *out != "" {
			if err := pattern.WriteJSONFile(*out, entry.Patterns); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote patterns to %s\n", *out)
		}
		if *outDir == "" {
			return nil
		}
		// The store keeps the set's stamp, so loaders detect staleness, and
		// its mining spec, so appends can rebuild a maintainer for it.
		path, err := pattern.SaveStoreStamped(*outDir, req.Table, entry.Patterns, entry.Stamp, entry.Spec)
		if err == nil {
			fmt.Fprintf(os.Stderr, "saved pattern store for table %q to %s\n", req.Table, path)
		}
		return err
	}
}

// appendVerb sends a JSONL batch of rows to /v1/append, which folds
// them into every pattern set mined over the table. In-process,
// -patterns-dir registers the table's pattern store first and re-writes
// it with the maintained set (byte-identical to a re-mine), and -o saves
// the grown dataset.
func appendVerb(fs *flag.FlagSet) func() error {
	t := targetFlags(fs)
	rowsPath := fs.String("rows", "", "JSONL file of rows to append, one JSON array per line ('-' = stdin; required)")
	patternsDir := fs.String("patterns-dir", "", "pattern-store directory holding this table's mined set, maintained in place")
	out := fs.String("o", "", "write the grown dataset as CSV to this path (default: dataset file is left unchanged)")
	return func() error {
		if *rowsPath == "" {
			return fmt.Errorf("-rows is required")
		}
		rows, err := readRawJSONLRows(*rowsPath)
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return fmt.Errorf("no rows to append in %s", *rowsPath)
		}
		c, err := t.open(fs, true, "patterns-dir", "o")
		if err != nil {
			return err
		}
		table := *t.table
		var setID string
		if *patternsDir != "" {
			entries, err := pattern.LoadStoreEntries(*patternsDir)
			if err != nil {
				return err
			}
			for _, e := range entries {
				if e.Table == table {
					id, warning := c.srv.AddPatternSetEntry(e)
					if warning != "" {
						fmt.Fprintf(os.Stderr, "warning: stale %s\n", warning)
					}
					setID = id
				}
			}
			if setID == "" {
				return fmt.Errorf("no pattern store for table %q in %s", table, *patternsDir)
			}
		}
		var resp struct {
			Appended, Rows int
			PatternSets    []struct {
				ID, Status, Reason string
				Patterns           int
			}
		}
		body, err := c.call("/v1/append", server.AppendRequest{Table: table, Rows: rows}, &resp)
		if err := t.emit(body, err, func() error {
			fmt.Printf("appended %d rows to %q (%d rows total)\n", resp.Appended, table, resp.Rows)
			for _, ps := range resp.PatternSets {
				fmt.Printf("  pattern set %s: %s, %d patterns %s\n", ps.ID, ps.Status, ps.Patterns, ps.Reason)
			}
			return nil
		}); err != nil {
			return err
		}
		for _, ps := range resp.PatternSets {
			if ps.ID != setID {
				continue
			}
			if ps.Status != "maintained" {
				return fmt.Errorf("store for %q was not maintained (%s); re-mine it with 'cape mine -out %s'",
					table, ps.Reason, *patternsDir)
			}
			// Stamp with the epoch a reload of the grown CSV will carry
			// (ReadCSV ticks once per row); the server's epoch ticked once
			// for the whole batch and would read as stale after a reload.
			entry, _ := c.srv.PatternSetEntry(setID)
			stamp := &pattern.StoreStamp{Epoch: uint64(resp.Rows), Rows: resp.Rows}
			path, err := pattern.SaveStoreStamped(*patternsDir, table, entry.Patterns, stamp, entry.Spec)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "updated pattern store %s (stamped rows=%d epoch=%d)\n", path, stamp.Rows, stamp.Epoch)
		}
		if *out == "" {
			return nil
		}
		tab, _ := c.srv.Table(table)
		if err = tab.WriteCSVFile(*out); err == nil {
			fmt.Fprintf(os.Stderr, "wrote grown dataset to %s\n", *out)
		}
		return err
	}
}
