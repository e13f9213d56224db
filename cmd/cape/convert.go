package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"

	"cape/internal/engine"
	"cape/internal/value"
)

// convertVerb streams a CSV dataset into the on-disk columnar segment
// format. Rows pass straight from the CSV reader into a SegmentWriter,
// so memory stays bounded by the dictionaries and run buffers — the
// source never materializes as a Table, which is what makes multi-
// million-row conversions possible. After writing, the segment is
// reopened (validating every checksum) and a per-column encoding report
// is printed.
func convertVerb(fs *flag.FlagSet) func() error {
	data := fs.String("data", "", "input CSV dataset (required)")
	out := fs.String("o", "", "output segment path (required, conventionally .seg)")
	quiet := fs.Bool("q", false, "suppress the per-column encoding report")
	return func() error {
		if *data == "" || *out == "" {
			return fmt.Errorf("-data and -o are required")
		}

		f, err := os.Open(*data)
		if err != nil {
			return err
		}
		defer f.Close()

		cr := csv.NewReader(f)
		cr.ReuseRecord = true
		header, err := cr.Read()
		if err != nil {
			return fmt.Errorf("reading CSV header: %w", err)
		}
		sch := make(engine.Schema, len(header))
		for i, name := range header {
			sch[i] = engine.Column{Name: name, Kind: value.Null}
		}
		w := engine.NewSegmentWriter(sch)
		row := make(value.Tuple, len(sch))
		for {
			rec, err := cr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("reading CSV row: %w", err)
			}
			if len(rec) != len(sch) {
				return fmt.Errorf("row %d has %d fields, header has %d", w.NumRows()+1, len(rec), len(sch))
			}
			for i, field := range rec {
				row[i] = value.Parse(field)
			}
			if err := w.Append(row); err != nil {
				return err
			}
		}

		if err := w.WriteFile(*out); err != nil {
			return err
		}

		// Reopen to verify: OpenSegment checks the header, footer, and every
		// column block against their CRCs before returning.
		seg, err := engine.OpenSegment(*out)
		if err != nil {
			return fmt.Errorf("verifying written segment: %w", err)
		}
		defer seg.Close()
		if seg.NumRows() != w.NumRows() {
			return fmt.Errorf("verify: segment has %d rows, wrote %d", seg.NumRows(), w.NumRows())
		}

		info, err := os.Stat(*out)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d rows, %d columns to %s (%d bytes), verified\n",
			seg.NumRows(), len(seg.Schema()), *out, info.Size())
		if *quiet {
			return nil
		}
		fmt.Printf("%-20s %8s %10s %8s\n", "column", "encoding", "dict", "runs")
		for ci, col := range seg.Schema() {
			cc := seg.Col(ci)
			runs := "-"
			if n := cc.NumRuns(); n > 0 {
				runs = fmt.Sprint(n)
			}
			fmt.Printf("%-20s %8s %10d %8s\n", col.Name, cc.EncodingName(), len(cc.Dict()), runs)
		}
		return nil
	}
}
