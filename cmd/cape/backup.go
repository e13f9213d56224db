package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cape/internal/store"
)

// cape export / cape import: portable JSONL backups of durable table
// stores (the -data-dir directories capeserver writes). The stream is a
// header line naming the table, schema, row count, and epoch, followed
// by one JSON row array per line — the same row shape 'cape append
// -rows' reads, so a backup doubles as an append feed.

func exportVerb(fs *flag.FlagSet) func() error {
	dir := fs.String("store", "", "durable store directory to export (required)")
	out := fs.String("o", "", "output file (default stdout)")
	return func() error {
		if *dir == "" {
			return fmt.Errorf("-store is required")
		}

		// Read-only: exporting must never repair, truncate, or flush the
		// store — it may belong to a running server.
		st, err := store.Open(*dir, store.Options{ReadOnly: true})
		if err != nil {
			return err
		}
		defer st.Close()

		var w io.Writer = os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := st.ExportJSONL(w); err != nil {
			return err
		}
		info := st.Info()
		fmt.Fprintf(os.Stderr, "exported table %q: %d rows (epoch %d)\n", info.Table, info.Rows, info.Epoch)
		return nil
	}
}

func importVerb(fs *flag.FlagSet) func() error {
	dir := fs.String("store", "", "store directory to create from the backup (required)")
	in := fs.String("i", "", "backup file (default stdin)")
	fsync := fs.String("fsync", "always", "fsync policy for the new store: always|never")
	return func() error {
		if *dir == "" {
			return fmt.Errorf("-store is required")
		}
		policy, err := store.ParseSyncPolicy(*fsync)
		if err != nil {
			return err
		}

		var r io.Reader = os.Stdin
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		st, err := store.ImportJSONL(*dir, r, store.Options{Sync: policy})
		if err != nil {
			return err
		}
		info := st.Info()
		if err := st.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "imported table %q into %s: %d rows (epoch %d), %d segments\n",
			info.Table, *dir, info.Rows, info.Epoch, info.Segments)
		return nil
	}
}
