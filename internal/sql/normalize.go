package sql

import (
	"strconv"
	"strings"
)

// Normalized is the canonical, constant-lifted form of a statement: the
// fingerprint with every literal replaced by a placeholder, plus the
// lifted constants in source order. Statements differing only in
// whitespace, keyword case, identifier quoting style or literal values
// share a fingerprint — the plan-cache key of the query service tier,
// whose plans read their constants from the bind slots.
type Normalized struct {
	// Fingerprint is the canonical statement text: single-spaced,
	// keywords uppercased, literals replaced by '?', trailing semicolon
	// dropped.
	Fingerprint string
	// Binds lists the lifted numeric literals in source order — every
	// constant of a parseable statement: a SELECT's BETWEEN bounds
	// [lo, hi], an INSERT's row values row by row, an UPDATE's
	// [set value, predicate value], a DELETE's [predicate value].
	Binds []float64
}

// Normalize lexes src and produces its canonical fingerprint and bind
// values. It is purely lexical — a statement can normalize cleanly and
// still fail Parse — so the query tier can key its cache lookup before
// paying for a parse. Errors are *SyntaxError values with offsets.
func Normalize(src string) (*Normalized, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	// Drop trailing semicolons: "q;" and "q" are the same statement (and
	// a fingerprint must never itself end in ';', or it would drift when
	// re-normalized after bind restoration).
	for n := len(toks); n > 0 && toks[n-1].kind == "punct" && toks[n-1].s == ";"; n-- {
		toks = toks[:n-1]
	}
	if len(toks) == 0 {
		return nil, errAt(0, "empty statement")
	}
	var (
		b     strings.Builder
		binds []float64
	)
	b.Grow(len(src))
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch t.kind {
		case "num":
			b.WriteByte('?')
			binds = append(binds, t.f)
		case "str":
			// The supported grammar has no string position, so string
			// literals are not lifted — a '?' placeholder without a bind
			// value would make the fingerprint unrestorable. Statements
			// containing strings never parse, hence are never cached.
			b.WriteByte('\'')
			b.WriteString(t.s)
			b.WriteByte('\'')
		case "ident":
			b.WriteString(canonicalIdent(t))
		default: // punct
			b.WriteString(t.s)
		}
	}
	return &Normalized{Fingerprint: b.String(), Binds: binds}, nil
}

// RestoreBinds substitutes bind values back into a fingerprint's '?'
// placeholders in order, producing a parseable statement again — the
// inverse of Normalize up to canonical spelling. Placeholders beyond
// len(binds) are left as-is.
func RestoreBinds(fingerprint string, binds []float64) string {
	var b strings.Builder
	b.Grow(len(fingerprint) + 8*len(binds))
	next := 0
	for i := 0; i < len(fingerprint); i++ {
		if fingerprint[i] == '?' && next < len(binds) {
			b.WriteString(strconv.FormatFloat(binds[next], 'g', -1, 64))
			next++
			continue
		}
		b.WriteByte(fingerprint[i])
	}
	return b.String()
}

// canonicalIdent renders one identifier token canonically: keywords
// uppercase, plain identifiers verbatim, quoted identifiers unquoted
// when quoting was redundant (the content lexes as a plain non-keyword
// identifier) and quoted otherwise — so `"ra"` and `ra` fingerprint
// identically but `"from"` stays distinct from the keyword FROM, and
// `"a.b"` (one dotted name) stays distinct from a.b (schema-qualified).
func canonicalIdent(t tok) string {
	if t.quoted {
		if isPlainIdent(t.s) && !isKeyword(t.s) && !strings.ContainsRune(t.s, '.') {
			return t.s
		}
		return `"` + t.s + `"`
	}
	if isKeyword(t.s) {
		return strings.ToUpper(t.s)
	}
	return t.s
}
