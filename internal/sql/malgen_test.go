package sql_test

// The SQL → MAL half of the front end's tests: statements compiled by
// malgen, optimized and run on the interpreter. They live in the
// external test package so that internal/sql itself imports nothing of
// the module.

import (
	"math/rand"
	"strings"
	"testing"

	"selforg/internal/bat"
	"selforg/internal/bpm"
	"selforg/internal/mal"
	"selforg/internal/model"
	"selforg/internal/opt"
	"selforg/internal/sql/malgen"
)

// testDB builds a sys.P table with deltas: base rows, one insert in
// range, one update moving a row out of range, one delete.
func testDB(segmented bool) (*mal.MemCatalog, *bpm.Store, []float64) {
	ras := []float64{204.0, 205.105, 205.11, 205.2, 205.119, 100.0}
	objs := []int64{1000, 1001, 1002, 1003, 1004, 1005}
	decs := []float64{1, 2, 3, 4, 5, 6}
	cat := mal.NewMemCatalog()
	segName := ""
	if segmented {
		segName = "sys_P_ra"
	}
	cat.AddTable(&mal.Table{
		Schema: "sys", Name: "P",
		Cols: map[string]*mal.Column{
			"ra": {
				Base:      bat.New(bat.NewDenseOids(0, 6), bat.NewDbls(ras)),
				Inserts:   bat.New(bat.NewDenseOids(6, 1), bat.NewDbls([]float64{205.115})),
				Updates:   bat.New(bat.NewOids([]uint64{2}), bat.NewDbls([]float64{210.0})),
				Segmented: segName,
			},
			"objid": {
				Base:    bat.New(bat.NewDenseOids(0, 6), bat.NewLngs(objs)),
				Inserts: bat.New(bat.NewDenseOids(6, 1), bat.NewLngs([]int64{1006})),
			},
			"dec": {
				Base:    bat.New(bat.NewDenseOids(0, 6), bat.NewDbls(decs)),
				Inserts: bat.New(bat.NewDenseOids(6, 1), bat.NewDbls([]float64{7})),
			},
		},
		Deletes: bat.New(bat.NewDenseOids(0, 1), bat.NewOids([]uint64{4})),
	})
	st := bpm.NewStore()
	if segmented {
		st.Register(bpm.NewSegmentedBAT("sys_P_ra",
			bat.New(bat.NewDenseOids(0, 6), bat.NewDbls(append([]float64(nil), ras...))), 0, 360, 4))
	}
	return cat, st, ras
}

func runSQL(t *testing.T, src string, optimize bool) (*mal.Context, string) {
	t.Helper()
	cat, st, _ := testDB(optimize)
	_, prog, err := malgen.Compile(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	if optimize {
		if err := opt.Default().Optimize(prog, &opt.Context{Catalog: cat, Store: st}); err != nil {
			t.Fatal(err)
		}
	}
	in := mal.NewInterp(cat, st)
	in.AdaptModel = model.Always{}
	var out strings.Builder
	in.Out = &out
	ctx, err := in.Run(prog, 205.1, 205.12)
	if err != nil {
		t.Fatalf("%v\nplan:\n%s", err, prog.String())
	}
	return ctx, out.String()
}

func TestCompileAndRunProjection(t *testing.T) {
	// Expected qualifying rows in ra [205.1, 205.12]: oid 1 (205.105)
	// and oid 6 (inserted 205.115); oid 2 updated out of range, oid 4
	// deleted.
	ctx, out := runSQL(t, "SELECT objid FROM P WHERE ra BETWEEN 205.1 AND 205.12", false)
	if len(ctx.Results) != 1 {
		t.Fatalf("results = %d", len(ctx.Results))
	}
	rs := ctx.Results[0]
	if rs.NumRows() != 2 || rs.NumCols() != 1 {
		t.Fatalf("shape = %dx%d\n%s", rs.NumCols(), rs.NumRows(), out)
	}
	got := map[int64]bool{}
	col := rs.Column(0)
	for i := 0; i < col.Len(); i++ {
		got[col.Tail.Get(i).AsLng()] = true
	}
	if !got[1001] || !got[1006] {
		t.Errorf("objids = %v, want {1001, 1006}", got)
	}
	if !strings.Contains(out, "bigint") {
		t.Errorf("export output missing type:\n%s", out)
	}
}

func TestCompileAndRunMultiColumn(t *testing.T) {
	ctx, _ := runSQL(t, "SELECT objid, dec FROM P WHERE ra BETWEEN 205.1 AND 205.12", false)
	rs := ctx.Results[0]
	if rs.NumCols() != 2 || rs.NumRows() != 2 {
		t.Fatalf("shape = %dx%d", rs.NumCols(), rs.NumRows())
	}
	// Row alignment: objid 1001 pairs with dec 2, objid 1006 with dec 7.
	objCol, decCol := rs.Column(0), rs.Column(1)
	pairs := map[int64]float64{}
	for i := 0; i < objCol.Len(); i++ {
		pairs[objCol.Tail.Get(i).AsLng()] = decCol.Tail.Get(i).AsDbl()
	}
	if pairs[1001] != 2 || pairs[1006] != 7 {
		t.Errorf("tuple reconstruction wrong: %v", pairs)
	}
}

func TestCompileAndRunCount(t *testing.T) {
	_, out := runSQL(t, "SELECT COUNT(*) FROM P WHERE ra BETWEEN 205.1 AND 205.12", false)
	if !strings.Contains(out, "2") {
		t.Errorf("count output = %q", out)
	}
}

func TestCompileAndRunSum(t *testing.T) {
	_, out := runSQL(t, "SELECT SUM(dec) FROM P WHERE ra BETWEEN 205.1 AND 205.12", false)
	// dec of oid 1 is 2, of oid 6 is 7 → 9.
	if !strings.Contains(out, "9") {
		t.Errorf("sum output = %q", out)
	}
}

func TestCompiledPlanSurvivesSegmentOptimizer(t *testing.T) {
	// The generated plan must be a valid input for the tactical
	// optimizer, and produce identical results after the §3.1 rewrite.
	plain, _ := runSQL(t, "SELECT objid FROM P WHERE ra BETWEEN 205.1 AND 205.12", false)
	optd, _ := runSQL(t, "SELECT objid FROM P WHERE ra BETWEEN 205.1 AND 205.12", true)
	a, b := plain.Results[0], optd.Results[0]
	if a.NumRows() != b.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", a.NumRows(), b.NumRows())
	}
	// The optimized plan must actually contain the segment iterator.
	cat, st, _ := testDB(true)
	_, prog, err := malgen.Compile("SELECT objid FROM P WHERE ra BETWEEN 205.1 AND 205.12", cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Default().Optimize(prog, &opt.Context{Catalog: cat, Store: st}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "bpm.newIterator") {
		t.Errorf("segment pass did not fire on the generated plan:\n%s", prog.String())
	}
}

func TestGenerateUnknownColumn(t *testing.T) {
	cat, _, _ := testDB(false)
	if _, _, err := malgen.Compile("SELECT nope FROM P WHERE ra BETWEEN 1 AND 2", cat); err == nil {
		t.Error("unknown projection accepted")
	}
	if _, _, err := malgen.Compile("SELECT objid FROM P WHERE nope BETWEEN 1 AND 2", cat); err == nil {
		t.Error("unknown predicate column accepted")
	}
	if _, _, err := malgen.Compile("SELECT SUM(nope) FROM P WHERE ra BETWEEN 1 AND 2", cat); err == nil {
		t.Error("unknown aggregate column accepted")
	}
	if _, _, err := malgen.Compile("SELECT objid FROM NOPE WHERE ra BETWEEN 1 AND 2", cat); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestGeneratedPlanAgainstReferenceFilter(t *testing.T) {
	// Property-style check over random data and bounds: the compiled
	// plan's COUNT matches a direct reference filter over the merged
	// (base+insert, minus deleted) data.
	rng := rand.New(rand.NewSource(21))
	n := 500
	ras := make([]float64, n)
	for i := range ras {
		ras[i] = rng.Float64() * 360
	}
	cat := mal.NewMemCatalog()
	cat.AddTable(&mal.Table{
		Schema: "sys", Name: "P",
		Cols: map[string]*mal.Column{
			"ra": {Base: bat.New(bat.NewDenseOids(0, n), bat.NewDbls(ras))},
		},
	})
	in := mal.NewInterp(cat, bpm.NewStore())
	var out strings.Builder
	in.Out = &out
	_, prog, err := malgen.Compile("SELECT COUNT(*) FROM P WHERE ra BETWEEN 0 AND 0", cat)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		lo := rng.Float64() * 300
		hi := lo + rng.Float64()*60
		out.Reset()
		if _, err := in.Run(prog, lo, hi); err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, v := range ras {
			if v >= lo && v <= hi {
				want++
			}
		}
		got := strings.TrimSpace(out.String())
		if got != itoa(want) {
			t.Fatalf("bounds [%g, %g]: plan counted %s, reference %d", lo, hi, got, want)
		}
	}
}

// itoa avoids importing strconv for one call site.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	digits := []byte{}
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}
