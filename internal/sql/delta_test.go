package sql_test

import (
	"strings"
	"testing"

	"selforg/internal/bat"
	"selforg/internal/mal"
	"selforg/internal/sql/malgen"
)

// freshDB builds a base-only sys.P table (empty delta bats), to be
// written through the catalog's delta-write API.
func freshDB() *mal.MemCatalog {
	cat := mal.NewMemCatalog()
	cat.AddTable(&mal.Table{
		Schema: "sys", Name: "P",
		Cols: map[string]*mal.Column{
			"ra":    {Base: bat.New(bat.NewDenseOids(0, 4), bat.NewDbls([]float64{204.0, 205.105, 205.11, 100.0}))},
			"objid": {Base: bat.New(bat.NewDenseOids(0, 4), bat.NewLngs([]int64{1000, 1001, 1002, 1003}))},
		},
	})
	return cat
}

func runPlan(t *testing.T, cat *mal.MemCatalog, src string, lo, hi float64) *mal.ResultSet {
	t.Helper()
	_, prog, err := malgen.Compile(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	in := mal.NewInterp(cat, nil)
	var out strings.Builder
	in.Out = &out
	ctx, err := in.Run(prog, lo, hi)
	if err != nil {
		t.Fatalf("%v\nplan:\n%s", err, prog.String())
	}
	if len(ctx.Results) != 1 {
		t.Fatalf("results = %d\n%s", len(ctx.Results), out.String())
	}
	return ctx.Results[0]
}

func objids(rs *mal.ResultSet) map[int64]bool {
	got := map[int64]bool{}
	col := rs.Column(0)
	for i := 0; i < col.Len(); i++ {
		got[col.Tail.Get(i).AsLng()] = true
	}
	return got
}

// TestDeltaChainSeesCatalogWrites drives the compiled Figure-1 plan
// against delta bats populated through the catalog write API: the same
// cached plan reflects inserts, updates and deletes with no
// recompilation — the §2 delta chain over real data.
func TestDeltaChainSeesCatalogWrites(t *testing.T) {
	cat := freshDB()
	const q = "SELECT objid FROM P WHERE ra BETWEEN 205.1 AND 205.12"

	// Baseline: only oid 1 (205.105) and oid 2 (205.11) qualify.
	got := objids(runPlan(t, cat, q, 205.1, 205.12))
	if len(got) != 2 || !got[1001] || !got[1002] {
		t.Fatalf("baseline objids = %v", got)
	}

	// Insert a qualifying row: lands in the insert bats (slot 1).
	oid, err := cat.InsertRow("sys", "P", map[string]bat.Value{
		"ra": bat.Dbl(205.115), "objid": bat.Lng(1004),
	})
	if err != nil {
		t.Fatal(err)
	}
	if oid != 4 {
		t.Fatalf("assigned oid = %d, want 4", oid)
	}
	got = objids(runPlan(t, cat, q, 205.1, 205.12))
	if len(got) != 3 || !got[1004] {
		t.Fatalf("after insert: objids = %v", got)
	}

	// Update oid 2 out of the range: upserts into the update bat
	// (slot 2); kdifference masks the old value, kunion brings the new.
	if err := cat.UpdateRow("sys", "P", 2, "ra", bat.Dbl(210.0)); err != nil {
		t.Fatal(err)
	}
	got = objids(runPlan(t, cat, q, 205.1, 205.12))
	if len(got) != 2 || got[1002] {
		t.Fatalf("after update: objids = %v", got)
	}
	// Update it again, back into range: the upsert must replace, not
	// duplicate (kunion would emit the row twice otherwise).
	if err := cat.UpdateRow("sys", "P", 2, "ra", bat.Dbl(205.101)); err != nil {
		t.Fatal(err)
	}
	rs := runPlan(t, cat, q, 205.1, 205.12)
	if rs.NumRows() != 3 {
		t.Fatalf("after re-update: %d rows, want 3", rs.NumRows())
	}

	// Delete the inserted row: the dbat masks base and inserts alike.
	if err := cat.DeleteRow("sys", "P", 4); err != nil {
		t.Fatal(err)
	}
	got = objids(runPlan(t, cat, q, 205.1, 205.12))
	if len(got) != 2 || got[1004] {
		t.Fatalf("after delete: objids = %v", got)
	}
}

// TestDeltaCatalogWriteValidation checks the write API's guards.
func TestDeltaCatalogWriteValidation(t *testing.T) {
	cat := freshDB()
	if _, err := cat.InsertRow("sys", "P", map[string]bat.Value{"ra": bat.Dbl(1)}); err == nil {
		t.Fatal("insert with missing column accepted")
	}
	if _, err := cat.InsertRow("sys", "P", map[string]bat.Value{
		"ra": bat.Dbl(1), "objid": bat.Lng(1), "bogus": bat.Lng(0),
	}); err == nil {
		t.Fatal("insert with unknown column accepted")
	}
	if _, err := cat.InsertRow("sys", "P", map[string]bat.Value{
		"ra": bat.Lng(1), "objid": bat.Lng(1), // ra is dbl
	}); err == nil {
		t.Fatal("insert with wrong-kinded value accepted")
	}
	if err := cat.UpdateRow("sys", "P", 0, "ra", bat.Lng(1)); err == nil {
		t.Fatal("update with wrong-kinded value accepted")
	}
	if err := cat.UpdateRow("sys", "P", 99, "ra", bat.Dbl(1)); err == nil {
		t.Fatal("update of unknown row accepted")
	}
	if err := cat.DeleteRow("sys", "P", 99); err == nil {
		t.Fatal("delete of unknown row accepted")
	}
	if err := cat.DeleteRow("sys", "P", 1); err != nil {
		t.Fatal(err)
	}
	if err := cat.DeleteRow("sys", "P", 1); err != nil {
		t.Fatal("re-delete must be idempotent")
	}
	if err := cat.UpdateRow("sys", "P", 1, "ra", bat.Dbl(2)); err == nil {
		t.Fatal("update of deleted row accepted")
	}
}
