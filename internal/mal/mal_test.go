package mal

import (
	"reflect"
	"strings"
	"testing"

	"selforg/internal/bat"
	"selforg/internal/bpm"
	"selforg/internal/model"
)

func TestLexerBasics(t *testing.T) {
	l := newLexer(`X1:bat[:oid,:dbl] := sql.bind("sys","P",205.1,0@0); # comment`)
	var kinds []tokKind
	for {
		tok, err := l.next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.kind == tokEOF {
			break
		}
		kinds = append(kinds, tok.kind)
	}
	want := []tokKind{
		tokIdent, tokColon, tokIdent, tokLBrack, tokColon, tokIdent, tokComma,
		tokColon, tokIdent, tokRBrack, tokAssign, tokIdent, tokDot, tokIdent,
		tokLParen, tokStr, tokComma, tokStr, tokComma, tokFlt, tokComma, tokOid,
		tokRParen, tokSemi,
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("kinds = %v\nwant   %v", kinds, want)
	}
}

func TestLexerNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind tokKind
		i    int64
		f    float64
	}{
		{"64", tokInt, 64, 0},
		{"-3", tokInt, -3, 0},
		{"205.1", tokFlt, 0, 205.1},
		{"1e3", tokFlt, 0, 1000},
		{"7@0", tokOid, 7, 0},
	}
	for _, c := range cases {
		tok, err := newLexer(c.src).next()
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if tok.kind != c.kind || tok.i != c.i || tok.f != c.f {
			t.Errorf("%s -> %+v", c.src, tok)
		}
	}
}

func TestLexerStringEscapes(t *testing.T) {
	tok, err := newLexer(`"a\n\"b\\"`).next()
	if err != nil {
		t.Fatal(err)
	}
	if tok.text != "a\n\"b\\" {
		t.Errorf("text = %q", tok.text)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `5@`, `?`} {
		l := newLexer(src)
		_, err := l.next()
		if err == nil {
			t.Errorf("%q: no error", src)
		}
	}
}

func TestParseSimpleAssignment(t *testing.T) {
	p, err := Parse(`X1:bat[:oid,:dbl] := sql.bind("sys","P","ra",0);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 1 {
		t.Fatalf("instrs = %d", len(p.Instrs))
	}
	in := p.Instrs[0]
	if in.Kind != OpAssign || in.Target != "X1" || in.Type != "bat[:oid,:dbl]" {
		t.Errorf("instr = %+v", in)
	}
	if in.Expr.Module != "sql" || in.Expr.Func != "bind" || len(in.Expr.Args) != 4 {
		t.Errorf("expr = %+v", in.Expr)
	}
}

func TestParseFunctionHeader(t *testing.T) {
	p, err := Parse("function user.s1_0(A0:dbl,A1:dbl):void;\nend s1_0;")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "user.s1_0" || p.RetType != "void" || len(p.Params) != 2 {
		t.Errorf("program = %+v", p)
	}
	if p.Params[0] != (Param{Name: "A0", Type: "dbl"}) {
		t.Errorf("param = %+v", p.Params[0])
	}
}

func TestParseEndMismatch(t *testing.T) {
	_, err := Parse("function user.f(A0:dbl):void;\nend g;")
	if err == nil {
		t.Error("mismatched end accepted")
	}
}

func TestParseBarrierBlock(t *testing.T) {
	src := `
barrier s := bpm.newIterator(Y, A0, A1);
T := algebra.select(s, A0, A1);
redo s := bpm.hasMoreElements(Y, A0, A1);
exit s;
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []OpKind{OpBarrier, OpAssign, OpRedo, OpExit}
	for i, k := range kinds {
		if p.Instrs[i].Kind != k {
			t.Errorf("instr %d kind = %v, want %v", i, p.Instrs[i].Kind, k)
		}
	}
}

func TestParseUnbalancedBarrier(t *testing.T) {
	for _, src := range []string{
		"barrier s := bpm.newIterator(Y, A, B);",
		"exit s;",
		"barrier a := m.f();\nexit b;",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: accepted", src)
		}
	}
}

func TestParseAliasAndLiterals(t *testing.T) {
	p, err := Parse("X := Y;\nZ := 42;\nW := true;\nV := nil;")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Instrs[0].Expr.Atom.IsVar || p.Instrs[0].Expr.Atom.Name != "Y" {
		t.Error("alias wrong")
	}
	if p.Instrs[1].Expr.Atom.Lit.Kind != LInt {
		t.Error("int literal wrong")
	}
	if p.Instrs[2].Expr.Atom.Lit.Kind != LBool {
		t.Error("bool literal wrong")
	}
	if p.Instrs[3].Expr.Atom.Lit.Kind != LNil {
		t.Error("nil literal wrong")
	}
}

func TestParseTypeLiteralArgs(t *testing.T) {
	p, err := Parse("Y2 := bpm.new(:oid,:dbl);")
	if err != nil {
		t.Fatal(err)
	}
	args := p.Instrs[0].Expr.Args
	if len(args) != 2 || args[0].Lit.Kind != LType || args[0].Lit.S != "oid" {
		t.Errorf("args = %+v", args)
	}
}

func TestProgramStringRoundTrip(t *testing.T) {
	src := `function user.demo(A0:dbl,A1:dbl):void;
Y1 := bpm.take("sys_P_ra");
Y2 := bpm.new(:oid,:dbl);
barrier rseg := bpm.newIterator(Y1,A0,A1);
T1 := algebra.select(rseg,A0,A1);
bpm.addSegment(Y2,T1);
redo rseg := bpm.hasMoreElements(Y1,A0,A1);
exit rseg;
end demo;
`
	p1 := MustParse(src)
	rendered := p1.String()
	p2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, rendered)
	}
	if p1.String() != p2.String() {
		t.Errorf("round trip unstable:\n%s\nvs\n%s", p1.String(), p2.String())
	}
}

// --- interpreter tests ---

// figure1Plan is the cached query plan of Figure 1, verbatim (modulo
// whitespace): select objId from P where ra between A0 and A1.
const figure1Plan = `
function user.s1_0(A0:dbl,A1:dbl):void;
X1:bat[:oid,:dbl]:= sql.bind("sys","P","ra",0);
X16:bat[:oid,:dbl]:= sql.bind("sys","P","ra",1);
X19:bat[:oid,:dbl]:= sql.bind("sys","P","ra",2);
X23:bat[:oid,:oid]:= sql.bind_dbat("sys","P",1);
X30:bat[:oid,:lng]:= sql.bind("sys","P","objid",0);
X32:bat[:oid,:lng]:= sql.bind("sys","P","objid",1);
X34:bat[:oid,:lng]:= sql.bind("sys","P","objid",2);
X14 := algebra.uselect(X1,A0,A1,true,true);
X17 := algebra.uselect(X16,A0,A1,true,true);
X18 := algebra.kunion(X14,X17);
X20 := algebra.kdifference(X18,X19);
X21 := algebra.uselect(X19,A0,A1,true,true);
X22 := algebra.kunion(X20,X21);
X24 := bat.reverse(X23);
X25 := algebra.kdifference(X22,X24);
X26 := calc.oid(0@0);
X28 := algebra.markT(X25,X26);
X29 := bat.reverse(X28);
X33 := algebra.kunion(X30,X32);
X35 := algebra.kdifference(X33,X34);
X36 := algebra.kunion(X35,X34);
X37 := algebra.join(X29,X36);
X38 := sql.resultSet(1,1,X37);
sql.rsColumn(X38,"sys.P","objid","bigint",64,0,X37);
sql.exportResult(X38,"");
end s1_0;
`

// skyCatalog builds a tiny sys.P table with base, insert, update and
// delete deltas to exercise the full Figure-1 semantics.
func skyCatalog() *MemCatalog {
	cat := NewMemCatalog()
	raBase := bat.New(bat.NewDenseOids(0, 6),
		bat.NewDbls([]float64{204.0, 205.105, 205.11, 205.2, 205.119, 100.0}))
	objBase := bat.New(bat.NewDenseOids(0, 6),
		bat.NewLngs([]int64{1000, 1001, 1002, 1003, 1004, 1005}))
	raIns := bat.New(bat.NewDenseOids(6, 2), bat.NewDbls([]float64{205.115, 300.0}))
	objIns := bat.New(bat.NewDenseOids(6, 2), bat.NewLngs([]int64{1006, 1007}))
	// Update: row oid 2 got a new ra outside the query range.
	raUpd := bat.New(bat.NewOids([]uint64{2}), bat.NewDbls([]float64{210.0}))
	// Delete: row oid 4.
	dels := bat.New(bat.NewDenseOids(0, 1), bat.NewOids([]uint64{4}))
	cat.AddTable(&Table{
		Schema: "sys", Name: "P",
		Cols: map[string]*Column{
			"ra":    {Base: raBase, Inserts: raIns, Updates: raUpd},
			"objid": {Base: objBase, Inserts: objIns},
		},
		Deletes: dels,
	})
	return cat
}

func TestFigure1PlanExecutes(t *testing.T) {
	prog := MustParse(figure1Plan)
	in := NewInterp(skyCatalog(), bpm.NewStore())
	var out strings.Builder
	in.Out = &out
	ctx, err := in.Run(prog, 205.1, 205.12)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.Results) != 1 {
		t.Fatalf("results = %d", len(ctx.Results))
	}
	rs := ctx.Results[0]
	if rs.NumCols() != 1 || rs.NumRows() != 2 {
		t.Fatalf("result shape = %dx%d, want 1x2\n%s", rs.NumCols(), rs.NumRows(), out.String())
	}
	// Expected objids: 1001 (base, in range) and 1006 (inserted, in
	// range). 1002 was updated out of range, 1004 deleted.
	got := map[int64]bool{}
	col := rs.Column(0)
	for i := 0; i < col.Len(); i++ {
		got[col.Tail.Get(i).AsLng()] = true
	}
	if !got[1001] || !got[1006] {
		t.Errorf("result objids = %v, want {1001, 1006}", got)
	}
	if !strings.Contains(out.String(), "objid") {
		t.Errorf("export output missing header:\n%s", out.String())
	}
}

func TestFigure1WidenedRangePicksUpdate(t *testing.T) {
	// With a range covering the updated value 210.0, oid 2 must reappear
	// through the X21 (updates-in-range) branch.
	prog := MustParse(figure1Plan)
	in := NewInterp(skyCatalog(), bpm.NewStore())
	ctx, err := in.Run(prog, 205.1, 211.0)
	if err != nil {
		t.Fatal(err)
	}
	col := ctx.Results[0].Column(0)
	got := map[int64]bool{}
	for i := 0; i < col.Len(); i++ {
		got[col.Tail.Get(i).AsLng()] = true
	}
	// In range now: 1001, 1002 (updated to 210), 1003 (205.2), 1006.
	for _, want := range []int64{1001, 1002, 1003, 1006} {
		if !got[want] {
			t.Errorf("missing objid %d in %v", want, got)
		}
	}
	if got[1004] {
		t.Error("deleted row leaked into result")
	}
}

func TestRunArgumentCountMismatch(t *testing.T) {
	prog := MustParse("function user.f(A0:dbl):void;\nend f;")
	in := NewInterp(NewMemCatalog(), bpm.NewStore())
	if _, err := in.Run(prog); err == nil {
		t.Error("missing argument accepted")
	}
}

func TestUndefinedVariableError(t *testing.T) {
	prog := MustParse("X := algebra.select(NOPE, 1, 2);")
	in := NewInterp(NewMemCatalog(), bpm.NewStore())
	if _, err := in.Run(prog); err == nil || !strings.Contains(err.Error(), "undefined variable") {
		t.Errorf("err = %v", err)
	}
}

func TestUnknownOperatorError(t *testing.T) {
	prog := MustParse("X := nosuch.op();")
	in := NewInterp(NewMemCatalog(), bpm.NewStore())
	if _, err := in.Run(prog); err == nil || !strings.Contains(err.Error(), "unknown operator") {
		t.Errorf("err = %v", err)
	}
}

// segStoreWith builds a store holding a segmented copy of the test ra
// column under "sys_P_ra".
func segStoreWith(t *testing.T) *bpm.Store {
	t.Helper()
	st := bpm.NewStore()
	ra := bat.New(bat.NewDenseOids(0, 6),
		bat.NewDbls([]float64{204.0, 205.105, 205.11, 205.2, 205.119, 100.0}))
	sb := bpm.NewSegmentedBAT("sys_P_ra", ra, 0, 360, 4)
	st.Register(sb)
	return st
}

// iteratorPlan is the §3.1 segment-optimizer output for the first
// selection of Figure 1, extended with the injected bpm.adapt call.
const iteratorPlan = `
function user.seg(A0:dbl,A1:dbl):void;
Y1 := bpm.take("sys_P_ra");
Y2 := bpm.new(:oid,:dbl);
barrier rseg := bpm.newIterator(Y1,A0,A1);
T1 := algebra.select(rseg,A0,A1);
bpm.addSegment(Y2,T1);
redo rseg := bpm.hasMoreElements(Y1,A0,A1);
exit rseg;
bpm.adapt(Y1,A0,A1);
N := bpm.segments(Y1);
end seg;
`

func TestSegmentIteratorPlan(t *testing.T) {
	prog := MustParse(iteratorPlan)
	in := NewInterp(skyCatalog(), segStoreWith(t))
	in.AdaptModel = model.Always{} // the test column is far below APM's Mmin
	ctx, err := in.Run(prog, 205.1, 205.12)
	if err != nil {
		t.Fatal(err)
	}
	y2, _ := ctx.Get("Y2")
	res := y2.(*bat.BAT)
	if res.Len() != 3 { // 205.105, 205.11, 205.119
		t.Errorf("selected %d rows, want 3", res.Len())
	}
	// The injected adapt call reorganized the column.
	n, _ := ctx.Get("N")
	if n.(int64) < 2 {
		t.Errorf("adapt did not split: %d segments", n)
	}
	if ctx.AdaptedBytes == 0 {
		t.Error("AdaptedBytes not accounted")
	}
}

func TestSegmentIteratorSecondQueryTouchesFewerSegments(t *testing.T) {
	// After the first query adapts the column, a repeat query must
	// iterate only the overlapping segments.
	prog := MustParse(iteratorPlan)
	st := segStoreWith(t)
	in := NewInterp(skyCatalog(), st)
	in.AdaptModel = model.Always{}
	if _, err := in.Run(prog, 205.1, 205.12); err != nil {
		t.Fatal(err)
	}
	sb, _ := st.Take("sys_P_ra")
	lo, hi := sb.Overlapping(205.1, 205.12)
	if hi-lo >= sb.SegmentCount() {
		t.Errorf("query still overlaps all %d segments", sb.SegmentCount())
	}
	// Second run must produce the same result.
	ctx, err := in.Run(prog, 205.1, 205.12)
	if err != nil {
		t.Fatal(err)
	}
	y2, _ := ctx.Get("Y2")
	if y2.(*bat.BAT).Len() != 3 {
		t.Errorf("second run selected %d rows", y2.(*bat.BAT).Len())
	}
	if err := sb.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSkipsWhenEmpty(t *testing.T) {
	// An iterator over a non-overlapping predicate must skip the block
	// entirely.
	prog := MustParse(iteratorPlan)
	in := NewInterp(skyCatalog(), segStoreWith(t))
	ctx, err := in.Run(prog, 400.0, 500.0)
	if err != nil {
		t.Fatal(err)
	}
	y2, _ := ctx.Get("Y2")
	if y2.(*bat.BAT).Len() != 0 {
		t.Error("block body ran for empty iterator")
	}
}

func TestResultSetRender(t *testing.T) {
	rs := &ResultSet{}
	rs.cols = append(rs.cols, rsColumn{
		table: "sys.P", name: "objid", typ: "bigint",
		b: bat.NewDense(bat.NewLngs([]int64{1, 2})),
	})
	var b strings.Builder
	rs.Render(&b)
	out := b.String()
	if !strings.Contains(out, "sys.P.objid:bigint") || !strings.Contains(out, "# 2 rows") {
		t.Errorf("render = %q", out)
	}
}

func TestAggrAndCalcBuiltins(t *testing.T) {
	cat := NewMemCatalog()
	cat.AddTable(&Table{
		Schema: "sys", Name: "T",
		Cols: map[string]*Column{
			"v": {Base: bat.NewDense(bat.NewLngs([]int64{3, 1, 4}))},
		},
	})
	src := `
B := sql.bind("sys","T","v",0);
S := aggr.sum(B);
C := aggr.count(B);
M := aggr.min(B);
X := aggr.max(B);
D := calc.dbl(2);
`
	in := NewInterp(cat, bpm.NewStore())
	ctx, err := in.Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := ctx.Get("S"); s.(bat.Value).AsLng() != 8 {
		t.Error("sum")
	}
	if c, _ := ctx.Get("C"); c.(int64) != 3 {
		t.Error("count")
	}
	if m, _ := ctx.Get("M"); m.(bat.Value).AsLng() != 1 {
		t.Error("min")
	}
	if x, _ := ctx.Get("X"); x.(bat.Value).AsLng() != 4 {
		t.Error("max")
	}
	if d, _ := ctx.Get("D"); d.(float64) != 2.0 {
		t.Error("dbl cast")
	}
}

func TestSegmentedSumViaMAL(t *testing.T) {
	// §3.1: sum over a segmented bat — iterate segments, sum each, add.
	src := `
function user.ssum():void;
Y1 := bpm.take("sys_P_ra");
Total := calc.dbl(0);
barrier rseg := bpm.newIterator(Y1, 0.0, 360.0);
P := aggr.sum(rseg);
Total := calc.add(Total, P);
redo rseg := bpm.hasMoreElements(Y1, 0.0, 360.0);
exit rseg;
end ssum;
`
	st := segStoreWith(t)
	// Split the column first so more than one segment participates.
	sb, _ := st.Take("sys_P_ra")
	if sb.Adapt(200, 206, model.Always{}) == 0 {
		t.Fatal("setup: no split")
	}
	in := NewInterp(skyCatalog(), st)
	ctx, err := in.Run(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	total, _ := ctx.Get("Total")
	want := 204.0 + 205.105 + 205.11 + 205.2 + 205.119 + 100.0
	if got := total.(float64); got < want-1e-6 || got > want+1e-6 {
		t.Errorf("segmented sum = %v, want %v", got, want)
	}
}
