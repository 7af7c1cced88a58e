// Command malrun drives the full §2 compilation stack: it compiles a SQL
// statement (or parses a MAL file) against a synthetic SkyServer-style
// database, optionally runs the tactical optimizer — whose segment pass
// performs the §3.1 rewrite when the ra column is segmented — and executes
// the plan, printing the result and the reorganization side effects.
//
//	malrun -sql "SELECT objid FROM P WHERE ra BETWEEN 205.1 AND 205.12"
//	malrun -sql "SELECT COUNT(*) FROM P WHERE ra BETWEEN 100 AND 200" -noopt
//	malrun -mal plan.mal -lo 205.1 -hi 205.12
//	malrun -sql "..." -print          # show the plan before/after optimization
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"selforg/internal/bat"
	"selforg/internal/bpm"
	"selforg/internal/mal"
	"selforg/internal/model"
	"selforg/internal/opt"
	"selforg/internal/sql"
	"selforg/internal/sql/malgen"
)

func main() {
	sqlSrc := flag.String("sql", "", "SQL statement to compile and run")
	malFile := flag.String("mal", "", "MAL plan file to run (expects a 2-parameter function)")
	lo := flag.Float64("lo", 205.1, "predicate low bound (A0) for -mal plans")
	hi := flag.Float64("hi", 205.12, "predicate high bound (A1) for -mal plans")
	n := flag.Int("n", 100_000, "rows in the synthetic sys.P table")
	seed := flag.Int64("seed", 3, "data seed")
	noopt := flag.Bool("noopt", false, "skip the tactical optimizer")
	printPlan := flag.Bool("print", false, "print the plan before and after optimization")
	unroll := flag.Int("unroll", 0, "unroll threshold for the segment pass (0 = iterator)")
	flag.Parse()

	if (*sqlSrc == "") == (*malFile == "") {
		fmt.Fprintln(os.Stderr, "malrun: exactly one of -sql or -mal is required")
		os.Exit(2)
	}

	cat, store := buildDatabase(*n, *seed)

	var prog *mal.Program
	var err error
	switch {
	case *sqlSrc != "":
		var q *sql.Query
		q, prog, err = malgen.Compile(*sqlSrc, cat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "malrun:", err)
			os.Exit(1)
		}
		fmt.Printf("-- %s\n", q)
		*lo, *hi = q.Lo, q.Hi
	default:
		src, rerr := os.ReadFile(*malFile)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "malrun:", rerr)
			os.Exit(1)
		}
		prog, err = mal.Parse(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "malrun:", err)
			os.Exit(1)
		}
	}

	if *printPlan {
		fmt.Println("-- plan before optimization:")
		fmt.Println(prog.String())
	}
	if !*noopt {
		o := opt.Default()
		if err := o.Optimize(prog, &opt.Context{Catalog: cat, Store: store, UnrollThreshold: *unroll}); err != nil {
			fmt.Fprintln(os.Stderr, "malrun: optimize:", err)
			os.Exit(1)
		}
		if *printPlan {
			fmt.Printf("-- plan after optimization (%s):\n", o.Describe())
			fmt.Println(prog.String())
		}
	}

	in := mal.NewInterp(cat, store)
	in.AdaptModel = model.NewAPM(64<<10, 256<<10)
	in.Out = os.Stdout
	ctx, err := in.Run(prog, *lo, *hi)
	if err != nil {
		fmt.Fprintln(os.Stderr, "malrun:", err)
		os.Exit(1)
	}
	sb, err := store.Take("sys_P_ra")
	if err == nil {
		fmt.Printf("-- segmented ra column: %d segments", sb.SegmentCount())
		if ctx.AdaptedBytes > 0 {
			fmt.Printf(" (this run rewrote %d bytes)", ctx.AdaptedBytes)
		}
		fmt.Println()
	}
}

// buildDatabase synthesizes sys.P(objid, ra, dec) with a segmented ra.
func buildDatabase(n int, seed int64) (*mal.MemCatalog, *bpm.Store) {
	rng := rand.New(rand.NewSource(seed))
	ras := make([]float64, n)
	objs := make([]int64, n)
	decs := make([]float64, n)
	for i := range ras {
		ras[i] = rng.Float64() * 360
		objs[i] = 0x1000000000000 + int64(i)*131
		decs[i] = rng.Float64()*120 - 60
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
			"dec":   {Base: bat.New(bat.NewDenseOids(0, n), bat.NewDbls(decs))},
		},
	})
	store := bpm.NewStore()
	store.Register(bpm.NewSegmentedBAT("sys_P_ra",
		bat.New(bat.NewDenseOids(0, n), bat.NewDbls(append([]float64(nil), ras...))), 0, 360, 4))
	return cat, store
}
