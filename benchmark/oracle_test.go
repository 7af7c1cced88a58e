package main

import (
	"math/rand"
	"strings"
	"testing"

	"selforg/internal/domain"
)

func TestOracleAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(1000) // many duplicates
	}
	o := newOracle(vals)
	for k := 0; k < 2000; k++ {
		lo := rng.Int63n(1100) - 50
		hi := lo + rng.Int63n(300) - 20 // sometimes inverted
		var n, sum int64
		for _, v := range vals {
			if v >= lo && v <= hi {
				n++
				sum += v
			}
		}
		if gn, gs := o.countSum(lo, hi); gn != n || gs != sum {
			t.Fatalf("countSum(%d, %d) = %d, %d; brute force %d, %d", lo, hi, gn, gs, n, sum)
		}
	}
}

func TestLiveSet(t *testing.T) {
	dom := domain.NewRange(0, 1<<30-1)
	l := newLiveSet(dom)
	rng := rand.New(rand.NewSource(2))
	var model []int64
	for step := 0; step < 20000; step++ {
		if len(model) == 0 || rng.Intn(3) > 0 {
			v := rng.Int63n(dom.Width())
			if step%7 == 0 && len(model) > 0 {
				v = model[rng.Intn(len(model))] // duplicates
			}
			l.add(v)
			model = append(model, v)
		} else {
			i := rng.Intn(l.len())
			v := l.removeAt(i)
			for k, m := range model {
				if m == v {
					model = append(model[:k], model[k+1:]...)
					break
				}
			}
		}
		if step%500 != 0 {
			continue
		}
		lo := rng.Int63n(dom.Width())
		hi := lo + dom.Width()/100
		var n, sum, total int64
		for _, v := range model {
			total += v
			if v >= lo && v <= hi {
				n++
				sum += v
			}
		}
		if gn, gs := l.countSum(lo, hi); gn != n || gs != sum || l.len() != len(model) || l.sum != total {
			t.Fatalf("step %d: countSum %d %d len %d sum %d; model %d %d len %d sum %d",
				step, gn, gs, l.len(), l.sum, n, sum, len(model), total)
		}
	}
}

func TestCheckers(t *testing.T) {
	base := newOracle([]int64{10, 11, 11, 12, 20, 21})
	rc := &readChecker{base: base, maxRows: 3}
	good := func(s stmt, r reply) {
		t.Helper()
		if msg := rc.check(s, &r); msg != "" {
			t.Errorf("right answer refused: %s", msg)
		}
	}
	bad := func(s stmt, r reply, want string) {
		t.Helper()
		if msg := rc.check(s, &r); !strings.Contains(msg, want) {
			t.Errorf("wrong answer: got %q, want mention of %q", msg, want)
		}
	}
	good(stmt{clsCount, 10, 12}, reply{count: 4})
	bad(stmt{clsCount, 10, 12}, reply{count: 3}, "count 3, model 4")
	good(stmt{clsSum, 10, 12}, reply{count: 4, sum: 44})
	bad(stmt{clsSum, 10, 12}, reply{count: 4, sum: 45}, "sum 45, model 44")
	good(stmt{clsSelect, 10, 11}, reply{count: 3, nrows: 3, rowMin: 10, rowMax: 11, rowSum: [2]int64{10, 22}})
	bad(stmt{clsSelect, 10, 11}, reply{count: 3, nrows: 2, rowMin: 10, rowMax: 11}, "2 rows")
	bad(stmt{clsSelect, 10, 11}, reply{count: 3, nrows: 3, rowMin: 10, rowMax: 12, rowSum: [2]int64{10, 22}}, "rows span")
	bad(stmt{clsSelect, 10, 11}, reply{count: 3, nrows: 3, rowMin: 10, rowMax: 11, rowSum: [2]int64{10, 21}}, "row sum")
	// Four rows against MaxRows 3: truncated, counted in full, not summed.
	good(stmt{clsSelect, 10, 12}, reply{count: 4, nrows: 3, truncated: true, rowMin: 10, rowMax: 12})
	bad(stmt{clsSelect, 10, 12}, reply{count: 4, nrows: 4, rowMin: 10, rowMax: 12}, "truncated")

	// mixed_rw, client of the even parity: own values exact, the other
	// client's may have grown.
	parts := splitParity(base.sorted)
	live := newLiveSet(domain.NewRange(0, 99))
	live.add(14)
	live.add(14)
	wc := &rwChecker{base: [2]*oracle{newOracle(parts[0]), newOracle(parts[1])}, parity: 0, live: live}
	if msg := wc.check(stmt{clsCount, 14, 14}, &reply{count: 2}); msg != "" {
		t.Errorf("read-your-writes refused: %s", msg)
	}
	if msg := wc.check(stmt{clsCount, 14, 14}, &reply{count: 1}); !strings.Contains(msg, "read-your-writes") {
		t.Errorf("lost write accepted: %q", msg)
	}
	sel := stmt{clsSelect, 10, 15}
	ok := reply{count: 7, nrows: 7, rowMin: 10, rowMax: 15, rowCnt: [2]int64{4, 3}, rowSum: [2]int64{10 + 12 + 14 + 14, 11 + 11 + 15}}
	if msg := wc.check(sel, &ok); msg != "" {
		t.Errorf("overlay read refused: %s", msg)
	}
	lost := ok
	lost.rowCnt[0], lost.rowSum[0], lost.count, lost.nrows = 3, 36, 6, 6
	if msg := wc.check(sel, &lost); !strings.Contains(msg, "own-parity") {
		t.Errorf("missing own write accepted: %q", msg)
	}
	short := ok
	short.rowCnt[1], short.count, short.nrows = 1, 5, 5
	if msg := wc.check(sel, &short); !strings.Contains(msg, "other-parity") {
		t.Errorf("missing base row of the other parity accepted: %q", msg)
	}
	if msg := wc.check(stmt{clsInsert, 16, 0}, &reply{count: 0}); !strings.Contains(msg, "affected 0") {
		t.Errorf("write that hit nothing accepted: %q", msg)
	}
}

// TestCorruptedOracleFailsTheRun: one wrong expected count in the model
// must surface as failed statements, an incorrect result and a non-zero
// exit code. The column is served for real; only the benchmark's copy of
// the data is off by one value.
func TestCorruptedOracleFailsTheRun(t *testing.T) {
	w := workloadByName("scan_wide")
	sc := &quickScale
	in, err := startInstance(w, sc, 5, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	run := func(base []int64) *e2eResult {
		gens, chks := buildClients(w, sc, 5, newModels(w, base), "run")
		c := newSQLClient(in.addr)
		defer c.close()
		p := &part{window: 1}
		drive(c, gens[0], chks[0], &p.tally, func(done int) bool { return done >= 60 })
		res := &e2eResult{Workload: w.name, Metrics: map[string]metric{}, Samples: map[string]int{}, Notes: map[string]float64{}}
		summarize(sc, []*part{p}, res)
		return res
	}
	base := w.values(5, w.n(sc))
	if res := run(base); !res.Correct || res.Failed != 0 || exitCode(res.Correct) != 0 {
		t.Fatalf("honest model: %d failed, problems %v", res.Failed, res.Problems)
	}
	corrupt := append([]int64(nil), base...)
	corrupt[0] = (corrupt[0] + w.extent.Hi/2) % w.extent.Hi // one value moved half a domain away
	res := run(corrupt)
	if res.Correct || res.Failed == 0 || exitCode(res.Correct) == 0 {
		t.Fatalf("corrupted model went unnoticed: %d of %d failed", res.Failed, res.Attempted)
	}
	if res.Metrics["fail_share"].Value <= 0 {
		t.Errorf("fail_share %v, want above 0", res.Metrics["fail_share"])
	}
}
