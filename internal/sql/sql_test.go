package sql

import (
	"strings"
	"testing"
)

func TestParseProjection(t *testing.T) {
	q, err := Parse("SELECT objid FROM P WHERE ra BETWEEN 205.1 AND 205.12")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Projections) != 1 || q.Projections[0] != "objid" {
		t.Errorf("projections = %v", q.Projections)
	}
	if q.Schema != "sys" || q.Table != "P" || q.PredCol != "ra" {
		t.Errorf("query = %+v", q)
	}
	if q.Lo != 205.1 || q.Hi != 205.12 {
		t.Errorf("bounds = %g/%g", q.Lo, q.Hi)
	}
}

func TestParseMultiProjection(t *testing.T) {
	q := MustParse("select objid, dec from P where ra between 1 and 2;")
	if len(q.Projections) != 2 || q.Projections[1] != "dec" {
		t.Errorf("projections = %v", q.Projections)
	}
}

func TestParseCount(t *testing.T) {
	q := MustParse("SELECT COUNT(*) FROM P WHERE ra BETWEEN 0 AND 360")
	if q.Aggregate != "count" || len(q.Projections) != 0 {
		t.Errorf("query = %+v", q)
	}
}

func TestParseSum(t *testing.T) {
	q := MustParse("SELECT SUM(dec) FROM P WHERE ra BETWEEN 0 AND 10")
	if q.Aggregate != "sum" || q.AggrCol != "dec" {
		t.Errorf("query = %+v", q)
	}
}

func TestParseSchemaQualified(t *testing.T) {
	q := MustParse("SELECT objid FROM other.T WHERE v BETWEEN 1 AND 2")
	if q.Schema != "other" || q.Table != "T" {
		t.Errorf("schema/table = %s/%s", q.Schema, q.Table)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT FROM P WHERE ra BETWEEN 1 AND 2",
		"SELECT objid FROM P",
		"SELECT objid FROM P WHERE ra BETWEEN 1 AND 'x'",
		"SELECT objid FROM P WHERE ra BETWEEN 1 AND 2 GARBAGE",
		"SELECT COUNT(objid) FROM P WHERE ra BETWEEN 1 AND 2", // only COUNT(*)
		"INSERT INTO P VALUES (1)",
		"SELECT 'lit FROM P WHERE ra BETWEEN 1 AND 2",
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("%q: accepted", c)
		}
	}
}

func TestQueryString(t *testing.T) {
	q := MustParse("SELECT COUNT(*) FROM P WHERE ra BETWEEN 1 AND 2")
	if got := q.String(); !strings.Contains(got, "COUNT(*)") {
		t.Errorf("String = %q", got)
	}
	q2 := MustParse("SELECT SUM(dec) FROM P WHERE ra BETWEEN 1 AND 2")
	if got := q2.String(); !strings.Contains(got, "SUM(dec)") {
		t.Errorf("String = %q", got)
	}
}
