// Package sql parses the question query of a CAPE user question
// (Definition 1), the one aggregate query the paper writes:
//
//	SELECT author, year, venue, count(*) AS pubcnt
//	FROM pub
//	GROUP BY author, year, venue
//
// Parse returns its group-by attributes and its aggregate. A user
// question asks about one tuple of the query's full result, so the
// dialect has no WHERE, HAVING, ORDER BY, LIMIT or DISTINCT; Parse
// refuses each of them by name.
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"cape/internal/engine"
)

// Parse extracts the (group-by attributes, aggregate) pair from a query
// of the shape
//
//	SELECT g1, ..., gn, agg(x) FROM t GROUP BY g1, ..., gn
//
// The SELECT items may come in any order and carry AS aliases; exactly
// one must be an aggregate, and every group-by column must be selected.
// Keywords and aggregate names are case-insensitive, identifiers are
// not, and a trailing semicolon is allowed.
func Parse(query string) (groupBy []string, agg engine.AggSpec, err error) {
	p := &parser{toks: lex(query)}
	if err := p.keyword("SELECT"); err != nil {
		return nil, engine.AggSpec{}, err
	}
	selected := map[string]bool{}
	aggs := 0
	for {
		col, a, err := p.item()
		if err != nil {
			return nil, engine.AggSpec{}, err
		}
		if a != nil {
			agg = *a
			aggs++
		} else {
			selected[col] = true
		}
		if !p.symbol(",") {
			break
		}
	}
	if err := p.keyword("FROM"); err != nil {
		return nil, engine.AggSpec{}, err
	}
	if _, err := p.ident(); err != nil {
		return nil, engine.AggSpec{}, err
	}
	if t := p.peek(); t.kind == tokEOF || t.text == ";" {
		return nil, engine.AggSpec{}, fmt.Errorf("sql: user question query needs GROUP BY")
	}
	if err := p.keyword("GROUP"); err != nil {
		return nil, engine.AggSpec{}, err
	}
	if err := p.keyword("BY"); err != nil {
		return nil, engine.AggSpec{}, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, engine.AggSpec{}, err
		}
		groupBy = append(groupBy, col)
		if !p.symbol(",") {
			break
		}
	}
	p.symbol(";")
	if p.peek().kind != tokEOF {
		return nil, engine.AggSpec{}, p.unexpected("end of query")
	}
	switch {
	case aggs == 0:
		return nil, engine.AggSpec{}, fmt.Errorf("sql: user question query needs an aggregate item")
	case aggs > 1:
		return nil, engine.AggSpec{}, fmt.Errorf("sql: user question query needs exactly one aggregate")
	}
	for _, g := range groupBy {
		if !selected[g] {
			return nil, engine.AggSpec{}, fmt.Errorf("sql: group-by column %q missing from SELECT list", g)
		}
	}
	return groupBy, agg, nil
}

// item parses one SELECT item — a column, or an aggregate call such as
// count(*) or sum(x) — with an optional AS alias, and returns the
// column or the aggregate.
func (p *parser) item() (col string, agg *engine.AggSpec, err error) {
	if p.symbol("*") {
		return "", nil, fmt.Errorf("sql: * is not allowed in a user question query")
	}
	name, err := p.ident()
	if err != nil {
		return "", nil, err
	}
	if p.symbol("(") {
		fn, err := engine.ParseAggFunc(name)
		if err != nil {
			return "", nil, p.errf("unknown aggregate function %q", name)
		}
		agg = &engine.AggSpec{Func: fn}
		if !p.symbol("*") {
			if agg.Arg, err = p.ident(); err != nil {
				return "", nil, err
			}
		} else if fn != engine.Count {
			return "", nil, p.errf("%s(*) is not valid; only count(*)", strings.ToLower(fn.String()))
		}
		if !p.symbol(")") {
			return "", nil, p.unexpected(`")"`)
		}
	} else {
		col = name
	}
	if p.accept(tokKeyword, "AS") {
		if _, err := p.ident(); err != nil {
			return "", nil, err
		}
	}
	return col, agg, nil
}

// refused names the clauses a question query must not have, by the
// keyword that opens them: each would filter, order, cut or deduplicate
// the result the question ranges over.
var refused = map[string]string{
	"WHERE": "WHERE", "HAVING": "HAVING", "ORDER": "ORDER BY", "LIMIT": "LIMIT", "DISTINCT": "DISTINCT",
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

// accept consumes the current token if it has the given kind and text.
func (p *parser) accept(kind tokenKind, text string) bool {
	if t := p.peek(); t.kind == kind && t.text == text {
		p.i++
		return true
	}
	return false
}

func (p *parser) symbol(sym string) bool { return p.accept(tokSymbol, sym) }

func (p *parser) keyword(kw string) error {
	if !p.accept(tokKeyword, kw) {
		return p.unexpected(kw)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.unexpected("identifier")
	}
	p.i++
	return t.text, nil
}

// unexpected reports the current token where want was expected, naming
// the clause when the token opens one the dialect refuses.
func (p *parser) unexpected(want string) error {
	if t := p.peek(); t.kind == tokKeyword && refused[t.text] != "" {
		return p.errf("user question query must not use %s (ask about the full result)", refused[t.text])
	}
	return p.errf("expected %s, got %s", want, p.peek())
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: "+format+" (offset %d)", append(args, p.peek().pos)...)
}

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokSymbol
	tokInvalid // a character outside the dialect; lexing stops there
)

// token is one lexical unit with its byte offset in the query.
type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep their case
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of query"
	case tokInvalid:
		return fmt.Sprintf("character %q", t.text)
	}
	return t.text
}

// keywords of the question query. The keywords of the clauses it
// refuses are the keys of refused; aggregate function names are
// identifiers followed by '('.
var keywords = map[string]bool{"SELECT": true, "FROM": true, "GROUP": true, "BY": true, "AS": true}

// lex tokenizes a query; the stream always ends with tokEOF. A
// character outside the dialect becomes one tokInvalid token and ends
// the stream, so the parser reports whatever comes before it first — a
// refused clause is named even when its predicate would not lex.
func lex(input string) []token {
	var out []token
	for i := 0; i < len(input); {
		r, size := utf8.DecodeRuneInString(input[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case r == '_' || unicode.IsLetter(r):
			start := i
			for i < len(input) {
				r, size := utf8.DecodeRuneInString(input[i:])
				if r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					break
				}
				i += size
			}
			word := input[start:i]
			if upper := strings.ToUpper(word); keywords[upper] || refused[upper] != "" {
				out = append(out, token{kind: tokKeyword, text: upper, pos: start})
			} else {
				out = append(out, token{kind: tokIdent, text: word, pos: start})
			}
		case strings.ContainsRune(",()*;", r):
			out = append(out, token{kind: tokSymbol, text: string(r), pos: i})
			i += size
		default:
			return append(out, token{kind: tokInvalid, text: string(r), pos: i}, token{kind: tokEOF, pos: i})
		}
	}
	return append(out, token{kind: tokEOF, pos: len(input)})
}
