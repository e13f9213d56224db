// Command cape is the command-line interface to the CAPE explanation
// system. Its serving commands — mine, explain, explain-batch and
// append — are clients of the /v1 HTTP API of internal/server: without -server they run against an
// in-process server loaded with -data as table -table; with -server URL,
// against a running capeserver or capeshard coordinator, whose state
// they name with -table and -set. Under -json they print the response
// body verbatim, the same bytes in both modes. Examples:
//
//	cape generate -dataset dblp -rows 10000 -seed 1 -o pubs.csv
//	cape mine -data pubs.csv -attrs author,venue,year -theta 0.1 -localsupp 3 -lambda 0.1 -globalsupp 2 -o patterns.json
//	cape explain -data pubs.csv -patterns patterns.json -groupby author,venue,year -tuple A0095,VLDB,2015 -dir low -k 10
//	cape explain-batch -data pubs.csv -patterns patterns.json -questions questions.jsonl -json
//	cape append -data pubs.csv -rows rows.jsonl -patterns-dir stores -o grown.csv
//	cape load -server http://localhost:8080 -table pubs -data pubs.csv
//	cape mine -server http://localhost:8080 -table pubs -theta 0.1
//	cape explain -server http://localhost:8080 -set ps-1 -groupby author,venue,year -tuple A0095,VLDB,2015 -dir low
//	cape export -store data-dir/pubs -o backup.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

// verbs is the command table that dispatch and usage read. A verb
// registers its flags and returns the function that runs the command
// once they have parsed.
var verbs = []struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func() error
}{
	{"generate", "produce a synthetic DBLP or Crime CSV dataset", generateVerb},
	{"convert", "stream a CSV dataset into a compressed columnar segment file", convertVerb},
	{"mine", "mine a pattern set of aggregate regression patterns", mineVerb},
	{"explain", "explain a surprising aggregate result with counterbalances", explainVerb},
	{"explain-batch", "answer a JSONL file of questions in one batch", explainBatchVerb},
	{"append", "append JSONL rows to a table and maintain its pattern sets", appendVerb},
	{"load", "upload a CSV as a table of a running server (-server)", loadVerb},
	{"status", "print a running server's status (-server)", statusVerb},
	{"export", "stream a durable table store (capeserver -data-dir) as JSONL backup", exportVerb},
	{"import", "rebuild a durable table store from a JSONL backup", importVerb},
}

func main() {
	if len(os.Args) < 2 || os.Args[1] == "help" || os.Args[1] == "-h" || os.Args[1] == "--help" {
		usage()
		if len(os.Args) < 2 {
			os.Exit(2)
		}
		return
	}
	exec, err := command(os.Args[1], os.Args[2:])
	if err == nil {
		err = exec()
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "cape %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

// command parses args into the named verb's flags, rejecting stray
// positional arguments, and returns the function that runs it.
func command(name string, args []string) (func() error, error) {
	for _, v := range verbs {
		if v.name != name {
			continue
		}
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		exec := v.setup(fs)
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() > 0 {
			return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
		}
		return exec, nil
	}
	return nil, fmt.Errorf("unknown command %q (run \"cape help\" for the list)", name)
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: cape <command> [flags]\n\ncommands:\n")
	for _, v := range verbs {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", v.name, v.summary)
	}
	fmt.Fprint(os.Stderr, "\nmine … append run in-process on -data, or against a running server with -server URL.\n"+
		"run \"cape <command> -h\" for the command's flags\n")
}
