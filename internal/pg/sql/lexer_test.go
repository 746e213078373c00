package sql

import (
	"strings"
	"testing"
)

// TestLexString covers string literals: plain ones are substrings of
// the source, and an escaped quote (two in a row) at the start, middle
// or end decodes to one.
func TestLexString(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`''`, ``},
		{`'abc'`, `abc`},
		{`'{1.5, 2.5}'`, `{1.5, 2.5}`},
		{`''''`, `'`},
		{`'''abc'`, `'abc`},
		{`'ab''cd'`, `ab'cd`},
		{`'abc'''`, `abc'`},
		{`'a''''b'`, `a''b`},
		{`'''a''b'''`, `'a'b'`},
		{`'it''s' AND`, `it's`},
	} {
		toks, err := lex(tc.src)
		if err != nil {
			t.Fatalf("lex(%q): %v", tc.src, err)
		}
		if toks[0].kind != tokString || toks[0].text != tc.want || toks[0].pos != 0 {
			t.Errorf("lex(%q) = %+v, want string %q at 0", tc.src, toks[0], tc.want)
		}
	}
	toks, err := lex(`x = 'a' 'b''c'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{toks[2].text, toks[3].text}; got[0] != "a" || got[1] != "b'c" || toks[3].pos != 8 {
		t.Errorf("two literals lexed as %+v", toks)
	}
}

func TestLexUnterminatedString(t *testing.T) {
	for _, src := range []string{`'`, `'abc`, `'abc''`, `''''' `, `x = 'a'' b`} {
		_, err := lex(src)
		if err == nil || !strings.Contains(err.Error(), "unterminated string") {
			t.Errorf("lex(%q): err %v, want unterminated string", src, err)
		}
	}
}
