package selforg

import (
	"bytes"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// eventCounts sums selforg_adaptation_events_total over all label sets,
// per kind, from the observer's Prometheus exposition — so the e2e
// tests exercise the text format, not just the handles.
func eventCounts(t *testing.T, ob *Observer) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	ob.Registry.WritePrometheus(&buf)
	re := regexp.MustCompile(`^selforg_adaptation_events_total\{kind="([a-z]+)".*\} (\d+)$`)
	out := make(map[string]int64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if m := re.FindStringSubmatch(line); m != nil {
			n, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				t.Fatalf("bad exposition line %q: %v", line, err)
			}
			out[m[1]] += n
		}
	}
	return out
}

// workload drives the column through the full adaptation repertoire:
// random selective queries (splits / replicas / recodes), point writes
// and an explicit checkpoint (merge).
func obsWorkload(t *testing.T, col *Column) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		lo := rng.Int63n(9000)
		col.Select(lo, lo+rng.Int63n(500))
	}
	for i := int64(0); i < 50; i++ {
		if _, err := col.Insert(i * 13 % 10000); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := col.MergeDeltas(); err != nil {
		t.Fatal(err)
	}
}

// TestObsEventCountsPerStrategy runs a workload against each strategy
// on its own observer and checks the strategy's signature adaptation
// events all fired — the acceptance criterion for the event pipeline.
func TestObsEventCountsPerStrategy(t *testing.T) {
	vals := make([]int64, 20000)
	for i := range vals {
		vals[i] = int64(i) % 10000
	}

	t.Run("segmentation", func(t *testing.T) {
		ob := NewObserver()
		col, err := New(Interval{0, 9999}, append([]int64(nil), vals...), Options{
			Strategy: Segmentation, Model: APM, APMMin: 256, APMMax: 2048,
			Compression:   CompressionAuto,
			Observability: Observability{Observer: ob},
		})
		if err != nil {
			t.Fatal(err)
		}
		obsWorkload(t, col)
		ev := eventCounts(t, ob)
		for _, kind := range []string{"split", "merge", "recode"} {
			if ev[kind] == 0 {
				t.Errorf("segmentation workload produced no %q events (%v)", kind, ev)
			}
		}
	})

	t.Run("replication", func(t *testing.T) {
		ob := NewObserver()
		col, err := New(Interval{0, 9999}, append([]int64(nil), vals...), Options{
			Strategy: Replication, Model: APM, APMMin: 256, APMMax: 2048,
			Compression:   CompressionAuto,
			Observability: Observability{Observer: ob},
		})
		if err != nil {
			t.Fatal(err)
		}
		obsWorkload(t, col)
		ev := eventCounts(t, ob)
		for _, kind := range []string{"replicate", "merge", "recode"} {
			if ev[kind] == 0 {
				t.Errorf("replication workload produced no %q events (%v)", kind, ev)
			}
		}
	})
}

// TestObsQueryCountersExposed checks the headline counter families land
// in the exposition with the strategy/shard labels, including the
// router and delta families on a sharded column.
func TestObsQueryCountersExposed(t *testing.T) {
	ob := NewObserver()
	col, err := New(Interval{0, 9999}, denseValues(10000), Options{
		Shards:        4,
		Observability: Observability{Observer: ob},
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Select(0, 9999) // all shards
	col.Count(10, 20)   // one shard
	if _, err := col.Insert(55); err != nil {
		t.Fatal(err)
	}
	if _, err := col.MergeDeltas(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	ob.Registry.WritePrometheus(&buf)
	body := buf.String()
	for _, want := range []string{
		`selforg_queries_total{op="select",strategy="segm",shard="0"} 1`,
		`selforg_router_queries_total{op="select"} 1`,
		`selforg_router_queries_total{op="count"} 1`,
		`selforg_writes_total{op="insert",strategy="segm",`,
		`selforg_delta_merges_total{strategy="segm",`,
		`selforg_read_bytes_total{strategy="segm",shard="3"}`,
		`# TYPE selforg_query_duration_ns histogram`,
		`selforg_segments{strategy="segm",shard="0"}`,
		`selforg_delta_pending_bytes{strategy="segm",shard="0"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestObsTotalsEquivalence pins satellite 2: the atomic totals
// accumulator must be byte-identical to the former mutex'd Stats.Add
// accounting over a mixed single-threaded operation sequence.
func TestObsTotalsEquivalence(t *testing.T) {
	col, err := New(Interval{0, 4999}, denseValues(5000), Options{
		Compression: CompressionAuto,
		APMMin:      128, APMMax: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want Stats
	queries := 0
	for i := int64(0); i < 40; i++ {
		_, st := col.Select(i*100, i*100+250)
		want.Add(st)
		queries++
	}
	_, st := col.Count(100, 4000)
	want.Add(st)
	queries++
	ist, err := col.Insert(42)
	if err != nil {
		t.Fatal(err)
	}
	want.Add(ist)
	if ok, dst, _ := col.Delete(42); ok {
		want.Add(dst)
	} else {
		t.Fatal("delete missed")
	}
	mst, err := col.MergeDeltas()
	if err != nil {
		t.Fatal(err)
	}
	want.Add(mst)
	bst, err := col.BulkLoad([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want.Add(bst)

	if got := col.Totals(); got != want {
		t.Errorf("atomic totals diverge from Stats.Add reference:\n got %+v\nwant %+v", got, want)
	}
	if got := col.Queries(); got != queries {
		t.Errorf("Queries() = %d, want %d", got, queries)
	}
}

// TestObsTracing checks the facade knob end to end: phase traces with
// the right op/strategy labels and nonzero totals appear in the ring.
func TestObsTracing(t *testing.T) {
	ob := NewObserver()
	col, err := New(Interval{0, 999}, denseValues(1000), Options{
		Observability: Observability{Observer: ob, Trace: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Select(100, 300)
	col.Count(0, 999)
	traces := ob.Traces.Recent()
	if len(traces) != 2 {
		t.Fatalf("traced %d queries, want 2", len(traces))
	}
	if traces[0].Op != "select" || traces[1].Op != "count" {
		t.Fatalf("trace ops = %q, %q", traces[0].Op, traces[1].Op)
	}
	for _, tr := range traces {
		if tr.Strategy != "segm" || tr.TotalNs <= 0 {
			t.Errorf("bad trace %+v", tr)
		}
	}
	if traces[0].Lo != 100 || traces[0].Hi != 300 || traces[0].Rows != 201 {
		t.Errorf("select trace carries wrong query: %+v", traces[0])
	}
}

// TestObsDisable checks Disable detaches the column: nothing lands in
// the configured observer.
func TestObsDisable(t *testing.T) {
	ob := NewObserver()
	// A fresh observer pre-registers only its own slow-query counter;
	// a detached column must add nothing to that baseline.
	var before bytes.Buffer
	ob.Registry.WritePrometheus(&before)
	col, err := New(Interval{0, 999}, denseValues(1000), Options{
		Observability: Observability{Observer: ob, Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Select(0, 999)
	var after bytes.Buffer
	ob.Registry.WritePrometheus(&after)
	if after.String() != before.String() {
		t.Errorf("disabled column still reported:\n%s", after.String())
	}
}

// TestObsLayoutInfo checks the per-shard layout breakdown the
// /debug/layout endpoint serves.
func TestObsLayoutInfo(t *testing.T) {
	ob := NewObserver()
	col, err := New(Interval{0, 9999}, denseValues(10000), Options{
		Strategy: Replication, Shards: 4,
		Observability: Observability{Observer: ob},
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Select(100, 200)
	infos := col.LayoutInfo()
	if len(infos) != 4 {
		t.Fatalf("LayoutInfo rows = %d, want 4", len(infos))
	}
	var storage int64
	for i, li := range infos {
		if li.Shard != i {
			t.Errorf("row %d has shard %d", i, li.Shard)
		}
		if li.Strategy != "repl" {
			t.Errorf("row %d strategy = %q", i, li.Strategy)
		}
		if li.Segments < 1 || li.StorageBytes <= 0 {
			t.Errorf("row %d implausible: %+v", i, li)
		}
		storage += li.StorageBytes
	}
	if storage != col.StorageBytes() {
		t.Errorf("per-shard storage sums to %d, column reports %d", storage, col.StorageBytes())
	}
}

// TestObsCloseShardedReplication checks the facade lifecycle on an
// observed 2-shard Replication column: Close after adapting queries is
// harmless, idempotent, and leaves a valid layout.
func TestObsCloseShardedReplication(t *testing.T) {
	ob := NewObserver()
	col, err := New(Interval{0, 9999}, denseValues(10000), Options{
		Strategy:      Replication,
		Shards:        2,
		Observability: Observability{Observer: ob},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		col.Select(i*400, i*400+300)
	}
	col.Close()
	col.Close() // idempotent
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
}
