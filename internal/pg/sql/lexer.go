// Package sql implements the mini SQL dialect of the generalized engine:
// enough of PostgreSQL's surface — CREATE TABLE, INSERT, CREATE INDEX …
// USING … WITH (…), SELECT … ORDER BY vec <-> '…' LIMIT k, SET, EXPLAIN —
// to express every workload in the paper, including PASE's vector-search
// SQL from Sec II-E.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString // single-quoted
	tokPunct  // single punctuation or multi-char operator
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex splits src into tokens. Identifiers and keywords are lowercased
// (the dialect is case-insensitive, like PostgreSQL's unquoted names).
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case unicode.IsDigit(rune(c)) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1])) && l.numberContext()):
			l.lexNumber()
		case unicode.IsLetter(rune(c)) || c == '_':
			l.lexIdent()
		default:
			l.lexPunct()
		}
	}
}

// numberContext disambiguates unary minus (start of a number) from the
// '-' inside the <-> operator: a digit-leading '-' only starts a number
// when the previous token is not '<'.
func (l *lexer) numberContext() bool {
	if len(l.toks) == 0 {
		return true
	}
	prev := l.toks[len(l.toks)-1]
	return !(prev.kind == tokPunct && prev.text == "<")
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			// line comment
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.pos++
	}
}

// lexString scans a single-quoted literal, in which two quotes in a row
// stand for one. The token's text is a substring of the source unless
// the literal holds such an escape; only then is a copy built.
func (l *lexer) lexString() error {
	start := l.pos
	l.pos++               // opening quote
	var b strings.Builder // written only once an escape is seen
	for {
		i := strings.IndexByte(l.src[l.pos:], '\'')
		if i < 0 {
			l.pos = len(l.src)
			return fmt.Errorf("sql: unterminated string starting at %d", start)
		}
		seg := l.src[l.pos : l.pos+i]
		l.pos += i + 1
		if l.pos < len(l.src) && l.src[l.pos] == '\'' { // escaped quote
			b.WriteString(seg)
			b.WriteByte('\'')
			l.pos++
			continue
		}
		text := seg
		if b.Len() > 0 {
			b.WriteString(seg)
			text = b.String()
		}
		l.toks = append(l.toks, token{kind: tokString, text: text, pos: start})
		return nil
	}
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case unicode.IsDigit(rune(c)):
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			if l.pos+1 < len(l.src) && (l.src[l.pos+1] == '+' || l.src[l.pos+1] == '-') {
				l.pos++
			}
		default:
			l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
			return
		}
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_' {
			l.pos++
			continue
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToLower(l.src[start:l.pos]), pos: start})
}

// multi-char operators recognized before single punctuation.
var operators = []string{"<->", "<=>", "<>", "!=", "<=", ">=", "::"}

func (l *lexer) lexPunct() {
	for _, op := range operators {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.toks = append(l.toks, token{kind: tokPunct, text: op, pos: l.pos})
			l.pos += len(op)
			return
		}
	}
	l.toks = append(l.toks, token{kind: tokPunct, text: string(l.src[l.pos]), pos: l.pos})
	l.pos++
}
