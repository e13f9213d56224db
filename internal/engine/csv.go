package engine

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"

	"cape/internal/value"
)

// csvBatchRows is how many parsed records ReadCSV hands to one
// AppendRows call.
const csvBatchRows = 4096

// ReadCSV loads a table from CSV data. The first record is the header;
// each field is parsed to the most specific value kind (int, float, then
// string; empty fields become NULL). Columns are untyped so mixed-kind
// columns load without error. Rows are appended in batches, but the
// epoch ends at the row count, as if each row had been appended alone:
// pattern stores stamp that epoch, and a reload must match it.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("engine: reading CSV header: %w", err)
	}
	sch := make(Schema, len(header))
	for i, name := range header {
		sch[i] = Column{Name: name, Kind: value.Null}
	}
	t := NewTable(sch)
	// AppendRows copies the values, so one slab serves every batch.
	width := len(sch)
	slab := make(value.Tuple, csvBatchRows*width)
	batch := make([]value.Tuple, 0, csvBatchRows)
	flush := func() error {
		err := t.AppendRows(batch)
		batch = batch[:0]
		return err
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("engine: reading CSV row: %w", err)
		}
		row := slab[len(batch)*width : (len(batch)+1)*width]
		for i, f := range rec {
			row[i] = value.Parse(f)
		}
		if batch = append(batch, row); len(batch) == csvBatchRows {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	t.epoch = uint64(t.n)
	return t, nil
}

// ReadCSVFile loads a table from the named CSV file.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}

// WriteCSV writes the table as CSV with a header row. NULL values render
// as empty fields. A record of one empty field — a NULL row of a
// one-column table, or the header of a table whose only column is named
// "" — is written as "", because csv.Reader skips the blank line
// encoding/csv would write for it.
func (t *Table) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	write := func(rec []string) error {
		if len(rec) == 1 && rec[0] == "" {
			cw.Flush()
			_, err := bw.WriteString("\"\"\n")
			return err
		}
		return cw.Write(rec)
	}
	if err := write(t.schema.Names()); err != nil {
		return err
	}
	rec := make([]string, len(t.schema))
	for r := 0; r < t.n; r++ {
		for i, c := range t.cols {
			if c.Kinds[r] == value.Null {
				rec[i] = ""
			} else {
				rec[i] = c.Value(r).String()
			}
		}
		if err := write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteCSVFile writes the table to the named file, creating or truncating
// it.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
