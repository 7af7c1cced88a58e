package opt_test

import (
	"fmt"
	"math/rand"

	"selforg/internal/bat"
	"selforg/internal/bpm"
	"selforg/internal/mal"
	"selforg/internal/model"
	"selforg/internal/opt"
)

// figure1 is the cached, non-optimized plan of the paper's Figure 1.
const figure1 = `
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

func buildDatabase(n int) (*mal.MemCatalog, *bpm.Store) {
	rng := rand.New(rand.NewSource(3))
	ras := make([]float64, n)
	objs := make([]int64, n)
	for i := range ras {
		ras[i] = rng.Float64() * 360
		objs[i] = 0x1000 + int64(i)
	}
	cat := mal.NewMemCatalog()
	cat.AddTable(&mal.Table{
		Schema: "sys", Name: "P",
		Cols: map[string]*mal.Column{
			"ra": {
				Base:      bat.New(bat.NewDenseOids(0, n), bat.NewDbls(ras)),
				Segmented: "sys_P_ra",
			},
			"objid": {Base: bat.New(bat.NewDenseOids(0, n), bat.NewLngs(objs))},
		},
	})
	store := bpm.NewStore()
	segCopy := bat.New(bat.NewDenseOids(0, n), bat.NewDbls(append([]float64(nil), ras...)))
	store.Register(bpm.NewSegmentedBAT("sys_P_ra", segCopy, 0, 360, 4))
	return cat, store
}

func run(prog *mal.Program, cat *mal.MemCatalog, store *bpm.Store, a0, a1 float64) (int, int64) {
	in := mal.NewInterp(cat, store)
	in.AdaptModel = model.NewAPM(1<<10, 1<<12)
	ctx, err := in.Run(prog, a0, a1)
	if err != nil {
		panic(err)
	}
	return ctx.Results[0].NumRows(), ctx.AdaptedBytes
}

// ExampleOptimizer_Optimize demonstrates the tactical-optimizer layer
// of §3.1 on the paper's Figure 1 plan: `select objId from P where ra
// between A0 and A1`. It parses the cached MAL plan, runs the segment
// optimizer — which rewrites the selection over the segmented ra column
// into the predicate-enhanced iterator sequence and injects the
// reorganizing call — executes both versions, and shows they return the
// same result while the optimized one reorganizes the column as a side
// effect.
func ExampleOptimizer_Optimize() {
	const n = 50_000
	a0, a1 := 205.1, 205.12

	fmt.Println("=== original plan (Figure 1) ===")
	orig := mal.MustParse(figure1)
	fmt.Println(orig.String())

	cat, store := buildDatabase(n)
	rows, _ := run(orig, cat, store, a0, a1)
	fmt.Printf("original result: %d objids in ra [%g, %g]\n\n", rows, a0, a1)

	fmt.Println("=== after the tactical optimizer (segment pass + alias + deadcode) ===")
	optimized := mal.MustParse(figure1)
	cat2, store2 := buildDatabase(n)
	o := opt.Default()
	if err := o.Optimize(optimized, &opt.Context{Catalog: cat2, Store: store2}); err != nil {
		panic(err)
	}
	fmt.Println(optimized.String())

	sb, _ := store2.Take("sys_P_ra")
	fmt.Printf("segments before: %d\n", sb.SegmentCount())
	rows2, adapted := run(optimized, cat2, store2, a0, a1)
	fmt.Printf("optimized result: %d objids (must match %d)\n", rows2, rows)
	fmt.Printf("segments after:  %d  (bpm.adapt rewrote %d bytes)\n", sb.SegmentCount(), adapted)
	fmt.Printf("layout: %s\n", sb.Dump())
	fmt.Println("\nplans are equivalent; the optimized one reorganized the column as a side effect.")
	// Output:
	// === original plan (Figure 1) ===
	// function user.s1_0(A0:dbl,A1:dbl):void;
	//     X1:bat[:oid,:dbl] := sql.bind("sys","P","ra",0);
	//     X16:bat[:oid,:dbl] := sql.bind("sys","P","ra",1);
	//     X19:bat[:oid,:dbl] := sql.bind("sys","P","ra",2);
	//     X23:bat[:oid,:oid] := sql.bind_dbat("sys","P",1);
	//     X30:bat[:oid,:lng] := sql.bind("sys","P","objid",0);
	//     X32:bat[:oid,:lng] := sql.bind("sys","P","objid",1);
	//     X34:bat[:oid,:lng] := sql.bind("sys","P","objid",2);
	//     X14 := algebra.uselect(X1,A0,A1,true,true);
	//     X17 := algebra.uselect(X16,A0,A1,true,true);
	//     X18 := algebra.kunion(X14,X17);
	//     X20 := algebra.kdifference(X18,X19);
	//     X21 := algebra.uselect(X19,A0,A1,true,true);
	//     X22 := algebra.kunion(X20,X21);
	//     X24 := bat.reverse(X23);
	//     X25 := algebra.kdifference(X22,X24);
	//     X26 := calc.oid(0@0);
	//     X28 := algebra.markT(X25,X26);
	//     X29 := bat.reverse(X28);
	//     X33 := algebra.kunion(X30,X32);
	//     X35 := algebra.kdifference(X33,X34);
	//     X36 := algebra.kunion(X35,X34);
	//     X37 := algebra.join(X29,X36);
	//     X38 := sql.resultSet(1,1,X37);
	//     sql.rsColumn(X38,"sys.P","objid","bigint",64,0,X37);
	//     sql.exportResult(X38,"");
	// end s1_0;
	//
	// original result: 3 objids in ra [205.1, 205.12]
	//
	// === after the tactical optimizer (segment pass + alias + deadcode) ===
	// function user.s1_0(A0:dbl,A1:dbl):void;
	//     X16:bat[:oid,:dbl] := sql.bind("sys","P","ra",1);
	//     X19:bat[:oid,:dbl] := sql.bind("sys","P","ra",2);
	//     X23:bat[:oid,:oid] := sql.bind_dbat("sys","P",1);
	//     X30:bat[:oid,:lng] := sql.bind("sys","P","objid",0);
	//     X32:bat[:oid,:lng] := sql.bind("sys","P","objid",1);
	//     X34:bat[:oid,:lng] := sql.bind("sys","P","objid",2);
	//     Yc1 := bpm.take("sys_P_ra");
	//     Yr1 := bpm.new(:oid,:dbl);
	//     barrier Si1 := bpm.newIterator(Yc1,A0,A1);
	//         Tp1 := algebra.uselect(Si1,A0,A1,true,true);
	//         bpm.addSegment(Yr1,Tp1);
	//     redo Si1 := bpm.hasMoreElements(Yc1,A0,A1);
	//     exit Si1;
	//     bpm.adapt(Yc1,A0,A1);
	//     X17 := algebra.uselect(X16,A0,A1,true,true);
	//     X18 := algebra.kunion(Yr1,X17);
	//     X20 := algebra.kdifference(X18,X19);
	//     X21 := algebra.uselect(X19,A0,A1,true,true);
	//     X22 := algebra.kunion(X20,X21);
	//     X24 := bat.reverse(X23);
	//     X25 := algebra.kdifference(X22,X24);
	//     X26 := calc.oid(0@0);
	//     X28 := algebra.markT(X25,X26);
	//     X29 := bat.reverse(X28);
	//     X33 := algebra.kunion(X30,X32);
	//     X35 := algebra.kdifference(X33,X34);
	//     X36 := algebra.kunion(X35,X34);
	//     X37 := algebra.join(X29,X36);
	//     X38 := sql.resultSet(1,1,X37);
	//     sql.rsColumn(X38,"sys.P","objid","bigint",64,0,X37);
	//     sql.exportResult(X38,"");
	// end s1_0;
	//
	// segments before: 1
	// optimized result: 3 objids (must match 3)
	// segments after:  2  (bpm.adapt rewrote 200000 bytes)
	// layout: [0,205.0999984741211)#28281 | [205.0999984741211,360)#21719
	//
	// plans are equivalent; the optimized one reorganized the column as a side effect.
}
