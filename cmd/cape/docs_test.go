package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocumentedCommandsParse keeps the documented command lines from
// drifting: every `cape <command> …` invocation in a code block of
// README.md or the verify skill, or in this package's doc comment, must
// name a command of the table, and its flags must parse.
func TestDocumentedCommandsParse(t *testing.T) {
	total := 0
	for _, path := range []string{"../../README.md", "../../.claude/skills/verify/SKILL.md", "main.go"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range codeLines(string(raw), strings.HasSuffix(path, ".go")) {
			for _, m := range invocationRE.FindAllStringSubmatch(line, -1) {
				total++
				args := shellWords(m[2])
				exec, err := command(m[1], args)
				if err != nil || exec == nil {
					t.Errorf("%s: cape %s %s: %v", path, m[1], strings.Join(args, " "), err)
				}
			}
		}
	}
	if total < 20 {
		t.Errorf("found only %d documented invocations; the extraction is broken", total)
	}
}

// invocationRE matches a cape command line: the binary (cape, ./cape or
// go run ./cmd/cape), the command, and the rest of the line.
var invocationRE = regexp.MustCompile(`(?:^|\s)(?:go run \./cmd/|\./)?cape\s+([a-z][a-z-]*)(.*)$`)

// codeLines returns the lines of src's code: fenced blocks of markdown,
// or the indented blocks of a Go doc comment. Lines continued with a
// trailing backslash are joined.
func codeLines(src string, goDoc bool) []string {
	var out []string
	inFence, cont := false, false
	for _, line := range strings.Split(src, "\n") {
		code := false
		switch {
		case goDoc && strings.HasPrefix(line, "//\t"):
			line, code = strings.TrimPrefix(line, "//\t"), true
		case !goDoc && strings.HasPrefix(strings.TrimSpace(line), "```"):
			inFence = !inFence
		case !goDoc && inFence:
			code = true
		}
		if !code {
			cont = false
			continue
		}
		joined := strings.HasSuffix(line, `\`)
		line = strings.TrimSuffix(line, `\`)
		if cont {
			out[len(out)-1] += " " + strings.TrimSpace(line)
		} else {
			out = append(out, line)
		}
		cont = joined
	}
	return out
}

// shellWords splits a command line the way a POSIX shell would for the
// simple lines the docs use: single and double quotes group, and an
// unquoted |, >, <, &, ; or # ends the command.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	r := strings.NewReader(s)
	for {
		c, _, err := r.ReadRune()
		if err == io.EOF || strings.ContainsRune("|><&;", c) || (c == '#' && !inWord) {
			break
		}
		switch {
		case c == '\'' || c == '"':
			inWord = true
			for {
				q, _, err := r.ReadRune()
				if err != nil || q == c {
					break
				}
				cur.WriteRune(q)
			}
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
			}
			inWord = false
		default:
			inWord = true
			cur.WriteRune(c)
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}
