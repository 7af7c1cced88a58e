package sql

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// TestParseCorpus is the table-driven lexer/parser corpus (the DataDog
// go-sql-lexer idiom): every supported surface form, every malformed
// shape found while hardening, with exact error positions. ok cases
// verify the parsed structure via a rendered summary; error cases
// verify the message fragment and the *SyntaxError offset.
func TestParseCorpus(t *testing.T) {
	type want struct {
		// summary is "proj|aggr|schema.table|predcol|lo|hi" rendered by
		// summarize for accepted statements.
		summary string
		// errFrag and errOff describe the expected failure ("" = accept).
		errFrag string
		errOff  int
	}
	cases := []struct {
		name, src string
		want      want
	}{
		// --- happy paths ---
		{"basic", "SELECT objid FROM P WHERE ra BETWEEN 205.1 AND 205.12",
			want{summary: "objid||sys.P|ra|205.1|205.12"}},
		{"multi projection", "SELECT a, b, c FROM t WHERE v BETWEEN 1 AND 2",
			want{summary: "a,b,c||sys.t|v|1|2"}},
		{"count", "SELECT COUNT(*) FROM P WHERE ra BETWEEN 0 AND 360",
			want{summary: "|count|sys.P|ra|0|360"}},
		{"sum", "SELECT SUM(dec) FROM P WHERE ra BETWEEN 0 AND 10",
			want{summary: "|sum:dec|sys.P|ra|0|10"}},
		{"schema qualified", "SELECT x FROM other.T WHERE v BETWEEN 1 AND 2",
			want{summary: "x||other.T|v|1|2"}},
		{"trailing semicolon", "SELECT x FROM t WHERE v BETWEEN 1 AND 2;",
			want{summary: "x||sys.t|v|1|2"}},
		{"equal bounds", "SELECT x FROM t WHERE v BETWEEN 5 AND 5",
			want{summary: "x||sys.t|v|5|5"}},

		// --- case folding ---
		{"lowercase keywords", "select x from t where v between 1 and 2",
			want{summary: "x||sys.t|v|1|2"}},
		{"mixed case keywords", "SeLeCt x FrOm t WhErE v BeTwEeN 1 AnD 2",
			want{summary: "x||sys.t|v|1|2"}},
		{"mixed case count", "select CoUnT(*) from t where v between 1 and 2",
			want{summary: "|count|sys.t|v|1|2"}},
		{"mixed case sum", "select sUm(d) from t where v between 1 and 2",
			want{summary: "|sum:d|sys.t|v|1|2"}},
		{"identifier case preserved", "SELECT ObjId FROM Tbl WHERE Ra BETWEEN 1 AND 2",
			want{summary: "ObjId||sys.Tbl|Ra|1|2"}},

		// --- whitespace forms ---
		{"tabs and newlines", "SELECT\tx\nFROM\r\nt WHERE v\nBETWEEN 1 AND 2",
			want{summary: "x||sys.t|v|1|2"}},
		{"packed commas", "SELECT a,b FROM t WHERE v BETWEEN 1 AND 2",
			want{summary: "a,b||sys.t|v|1|2"}},
		{"leading whitespace", "   SELECT x FROM t WHERE v BETWEEN 1 AND 2",
			want{summary: "x||sys.t|v|1|2"}},

		// --- numeric edge forms ---
		{"negative bounds", "SELECT x FROM t WHERE v BETWEEN -10 AND -2",
			want{summary: "x||sys.t|v|-10|-2"}},
		{"exponent", "SELECT x FROM t WHERE v BETWEEN 1e3 AND 2e3",
			want{summary: "x||sys.t|v|1000|2000"}},
		{"upper exponent with sign", "SELECT x FROM t WHERE v BETWEEN 1E+2 AND 1E+3",
			want{summary: "x||sys.t|v|100|1000"}},
		{"negative exponent", "SELECT x FROM t WHERE v BETWEEN 1e-2 AND 1",
			want{summary: "x||sys.t|v|0.01|1"}},
		{"leading dot", "SELECT x FROM t WHERE v BETWEEN .5 AND 1.5",
			want{summary: "x||sys.t|v|0.5|1.5"}},
		{"trailing dot", "SELECT x FROM t WHERE v BETWEEN 5. AND 6.",
			want{summary: "x||sys.t|v|5|6"}},
		{"negative fraction", "SELECT x FROM t WHERE v BETWEEN -0.5 AND 0.5",
			want{summary: "x||sys.t|v|-0.5|0.5"}},

		// --- quoted identifiers ---
		{"quoted projection", `SELECT "objid" FROM t WHERE v BETWEEN 1 AND 2`,
			want{summary: "objid||sys.t|v|1|2"}},
		{"quoted keyword as column", `SELECT "select" FROM t WHERE v BETWEEN 1 AND 2`,
			want{summary: "select||sys.t|v|1|2"}},
		{"quoted table", `SELECT x FROM "from" WHERE v BETWEEN 1 AND 2`,
			want{summary: "x||sys.from|v|1|2"}},
		{"quoted with space", `SELECT "a b" FROM t WHERE v BETWEEN 1 AND 2`,
			want{summary: "a b||sys.t|v|1|2"}},
		{"quoted dotted table stays whole", `SELECT x FROM "a.b" WHERE v BETWEEN 1 AND 2`,
			want{summary: "x||sys.a.b|v|1|2"}},
		{"quoted predicate", `SELECT x FROM t WHERE "where" BETWEEN 1 AND 2`,
			want{summary: "x||sys.t|where|1|2"}},
		{"quoted sum column", `SELECT SUM("and") FROM t WHERE v BETWEEN 1 AND 2`,
			want{summary: "|sum:and|sys.t|v|1|2"}},

		// --- lex errors (position = offending byte) ---
		{"empty input", "", want{errFrag: "expected SELECT", errOff: 0}},
		{"only whitespace", "   ", want{errFrag: "expected SELECT", errOff: 3}},
		{"unexpected character", "SELECT x FROM t WHERE v BETWEEN 1 AND 2 !",
			want{errFrag: "unexpected character", errOff: 40}},
		{"unterminated string", "SELECT 'lit FROM t WHERE v BETWEEN 1 AND 2",
			want{errFrag: "unterminated string", errOff: 7}},
		{"unterminated quoted ident", `SELECT "objid FROM t WHERE v BETWEEN 1 AND 2`,
			want{errFrag: "unterminated quoted identifier", errOff: 7}},
		{"empty quoted ident", `SELECT "" FROM t WHERE v BETWEEN 1 AND 2`,
			want{errFrag: "empty quoted identifier", errOff: 7}},
		{"bare minus", "SELECT x FROM t WHERE v BETWEEN - AND 2",
			want{errFrag: "bad number", errOff: 32}},
		{"bare dot", "SELECT x FROM t WHERE v BETWEEN . AND 2",
			want{errFrag: "bad number", errOff: 32}},
		{"double dot number", "SELECT x FROM t WHERE v BETWEEN 1.2.3 AND 9",
			want{errFrag: "bad number", errOff: 32}},
		{"dangling exponent", "SELECT x FROM t WHERE v BETWEEN 1e AND 9",
			want{errFrag: "bad number", errOff: 32}},
		{"exponent sign only", "SELECT x FROM t WHERE v BETWEEN 1e+ AND 9",
			want{errFrag: "bad number", errOff: 32}},
		{"double minus", "SELECT x FROM t WHERE v BETWEEN --1 AND 9",
			want{errFrag: "bad number", errOff: 32}},
		{"overflowing exponent", "SELECT x FROM t WHERE v BETWEEN 1e999 AND 9",
			want{errFrag: "bad number", errOff: 32}},
		{"at sign", "SELECT @ FROM t WHERE v BETWEEN 1 AND 2",
			want{errFrag: "unexpected character", errOff: 7}},

		// --- parse errors (position = offending token) ---
		{"not a select", "INSERT INTO P VALUES (1)",
			want{errFrag: "expected SELECT", errOff: 0}},
		{"missing projection", "SELECT FROM t WHERE v BETWEEN 1 AND 2",
			want{errFrag: "unexpected keyword", errOff: 7}},
		{"missing from", "SELECT x t WHERE v BETWEEN 1 AND 2",
			want{errFrag: "expected FROM", errOff: 9}},
		{"missing where", "SELECT x FROM t",
			want{errFrag: "expected WHERE", errOff: 15}},
		{"truncated after where", "SELECT x FROM t WHERE",
			want{errFrag: "expected identifier", errOff: 21}},
		{"missing between", "SELECT x FROM t WHERE v",
			want{errFrag: "expected BETWEEN", errOff: 23}},
		{"truncated after between", "SELECT x FROM t WHERE v BETWEEN",
			want{errFrag: "expected number", errOff: 31}},
		{"missing and", "SELECT x FROM t WHERE v BETWEEN 1 2",
			want{errFrag: "expected AND", errOff: 34}},
		{"truncated after and", "SELECT x FROM t WHERE v BETWEEN 1 AND",
			want{errFrag: "expected number", errOff: 37}},
		{"string bound", "SELECT x FROM t WHERE v BETWEEN 1 AND 'x'",
			want{errFrag: "expected number", errOff: 38}},
		{"identifier bound", "SELECT x FROM t WHERE v BETWEEN 1 AND hi",
			want{errFrag: "expected number", errOff: 38}},
		{"inverted bounds", "SELECT x FROM t WHERE v BETWEEN 2 AND 1",
			want{summary: "x||sys.t|v|2|1"}},
		{"trailing garbage", "SELECT x FROM t WHERE v BETWEEN 1 AND 2 GARBAGE",
			want{errFrag: "trailing input", errOff: 40}},
		{"garbage after semicolon", "SELECT x FROM t WHERE v BETWEEN 1 AND 2; x",
			want{errFrag: "trailing input", errOff: 41}},
		{"count of column", "SELECT COUNT(objid) FROM t WHERE v BETWEEN 1 AND 2",
			want{errFrag: `expected "*"`, errOff: 13}},
		{"count unclosed", "SELECT COUNT(* FROM t WHERE v BETWEEN 1 AND 2",
			want{errFrag: `expected ")"`, errOff: 15}},
		{"sum of star", "SELECT SUM(*) FROM t WHERE v BETWEEN 1 AND 2",
			want{errFrag: "expected identifier", errOff: 11}},
		{"sum unclosed", "SELECT SUM(d FROM t WHERE v BETWEEN 1 AND 2",
			want{errFrag: `expected ")"`, errOff: 13}},
		{"keyword projection", "SELECT from FROM t WHERE v BETWEEN 1 AND 2",
			want{errFrag: "unexpected keyword", errOff: 7}},
		{"keyword table", "SELECT x FROM where WHERE v BETWEEN 1 AND 2",
			want{errFrag: "unexpected keyword", errOff: 14}},
		{"dangling comma", "SELECT a, FROM t WHERE v BETWEEN 1 AND 2",
			want{errFrag: "unexpected keyword", errOff: 10}},
		{"number projection", "SELECT 1 FROM t WHERE v BETWEEN 1 AND 2",
			want{errFrag: "expected identifier", errOff: 7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := Parse(c.src)
			if c.want.errFrag == "" {
				if err != nil {
					t.Fatalf("Parse(%q) = %v", c.src, err)
				}
				if got := summarize(q); got != c.want.summary {
					t.Fatalf("Parse(%q):\n  got  %s\n  want %s", c.src, got, c.want.summary)
				}
				return
			}
			if err == nil {
				t.Fatalf("Parse(%q) accepted, want error %q", c.src, c.want.errFrag)
			}
			if !strings.Contains(err.Error(), c.want.errFrag) {
				t.Fatalf("Parse(%q) error %q, want fragment %q", c.src, err, c.want.errFrag)
			}
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("Parse(%q) error %T is not *SyntaxError", c.src, err)
			}
			if se.Offset != c.want.errOff {
				t.Fatalf("Parse(%q) error offset %d, want %d (%v)", c.src, se.Offset, c.want.errOff, err)
			}
		})
	}
}

// summarize renders the parsed query compactly for corpus comparison.
func summarize(q *Query) string {
	var b strings.Builder
	b.WriteString(strings.Join(q.Projections, ","))
	b.WriteByte('|')
	b.WriteString(q.Aggregate)
	if q.AggrCol != "" {
		b.WriteString(":" + q.AggrCol)
	}
	b.WriteByte('|')
	b.WriteString(q.Schema + "." + q.Table)
	b.WriteByte('|')
	b.WriteString(q.PredCol)
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(q.Lo, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(q.Hi, 'g', -1, 64))
	return b.String()
}
