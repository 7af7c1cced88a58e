package durable

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"selforg/internal/delta"
	"selforg/internal/domain"
	"selforg/internal/wal"
)

// fakeTarget applies ops to an in-memory multiset and records each
// batch, standing in for the column.
type fakeTarget struct {
	mu      sync.Mutex
	content map[domain.Value]int
	batches [][]delta.Op
	shards  int
	width   domain.Value // per-shard domain width for CaptureShard
	// failApply, when set, fails the next ApplyOps (one-shot) without
	// touching the content — the apply-side fault.
	failApply error
}

func newFakeTarget(shards int, width domain.Value) *fakeTarget {
	return &fakeTarget{content: map[domain.Value]int{}, shards: shards, width: width}
}

func (f *fakeTarget) ApplyOps(ops []delta.Op) ([]bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failApply != nil {
		err := f.failApply
		f.failApply = nil
		return nil, err
	}
	f.batches = append(f.batches, append([]delta.Op(nil), ops...))
	res := make([]bool, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case delta.OpInsert:
			f.content[op.V]++
			res[i] = true
		case delta.OpDelete:
			if f.content[op.V] > 0 {
				f.content[op.V]--
				res[i] = true
			}
		case delta.OpUpdate:
			if f.content[op.V] > 0 {
				f.content[op.V]--
				f.content[op.New]++
				res[i] = true
			}
		}
	}
	return res, nil
}

func (f *fakeTarget) failNextApply(err error) { f.mu.Lock(); f.failApply = err; f.mu.Unlock() }

func (f *fakeTarget) batchCount() int { f.mu.Lock(); defer f.mu.Unlock(); return len(f.batches) }

// CaptureShard returns shard i's content as one segment over its range.
func (f *fakeTarget) CaptureShard(i int) []wal.Segment {
	f.mu.Lock()
	defer f.mu.Unlock()
	lo, hi := f.width*domain.Value(i), f.width*domain.Value(i+1)
	out := []domain.Value{}
	for v, n := range f.content {
		if v >= lo && v < hi {
			for k := 0; k < n; k++ {
				out = append(out, v)
			}
		}
	}
	return []wal.Segment{{Rng: domain.Range{Lo: lo, Hi: hi - 1}, Vals: out}}
}

func (f *fakeTarget) snapshot() map[domain.Value]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[domain.Value]int, len(f.content))
	for v, n := range f.content {
		out[v] = n
	}
	return out
}

// fakeRouter shards [0, shards*width) by width.
type fakeRouter struct {
	shards int
	width  domain.Value
}

func (r fakeRouter) Shards() int { return r.shards }
func (r fakeRouter) ShardOf(op delta.Op) int {
	i := int(op.V / r.width)
	if i < 0 || i >= r.shards {
		return 0
	}
	return i
}
func (r fakeRouter) CrossShard(op delta.Op) bool {
	return op.Kind == delta.OpUpdate && r.ShardOf(op) != r.ShardOf(delta.Op{V: op.New})
}

// TestGroupCommitBatchesConcurrentWriters: many writers submit at once;
// every ack is correct, the full content lands, and the committer forms
// real groups (fewer batches than ops).
func TestGroupCommitBatchesConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	router := fakeRouter{shards: 2, width: 1000}
	c, rec, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Fatalf("fresh dir reported recovered state: %+v", rec)
	}
	target := newFakeTarget(2, 1000)
	c.Start(target)
	defer c.Close()

	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := domain.Value(w*per + i)
				ok, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: v})
				if err != nil || !ok {
					t.Errorf("insert %d: ok=%v err=%v", v, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	content := target.snapshot()
	for v := 0; v < writers*per; v++ {
		if content[domain.Value(v)] != 1 {
			t.Fatalf("value %d count %d after commit", v, content[domain.Value(v)])
		}
	}
	st := c.Stats()
	if st.Records != writers*per {
		t.Fatalf("records %d, want %d", st.Records, writers*per)
	}
	if st.Batches >= st.Records {
		t.Fatalf("no batching: %d batches for %d records", st.Batches, st.Records)
	}
	if st.Bytes <= 0 || st.WALSize <= 0 {
		t.Fatalf("no wal bytes accounted: %+v", st)
	}
}

// TestRecoveredReplayMatches: commit a workload, close, reopen — the
// recovered batches replayed into a fresh target reproduce the content.
func TestRecoveredReplayMatches(t *testing.T) {
	dir := t.TempDir()
	router := fakeRouter{shards: 2, width: 1000}
	c, _, err := Open(Config{Dir: dir, Fsync: true}, router)
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(2, 1000)
	c.Start(target)
	for i := 0; i < 40; i++ {
		if _, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: domain.Value(i * 50)}); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := c.Submit(delta.Op{Kind: delta.OpUpdate, V: 0, New: 1500}); err != nil || !ok {
		t.Fatalf("cross-shard update: ok=%v err=%v", ok, err)
	}
	want := target.snapshot()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, rec, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if rec.Empty() {
		t.Fatal("no recovered state after workload")
	}
	fresh := newFakeTarget(2, 1000)
	for _, b := range rec.Batches {
		if _, err := fresh.ApplyOps(b.Ops); err != nil {
			t.Fatal(err)
		}
	}
	got := fresh.snapshot()
	for v, n := range want {
		if n != 0 && got[v] != n {
			t.Fatalf("replayed content[%d]=%d, want %d", v, got[v], n)
		}
	}
	// The cross-shard update rode in its own seq.
	last := rec.Batches[len(rec.Batches)-1]
	if len(last.Ops) != 1 || last.Ops[0].Kind != delta.OpUpdate {
		t.Fatalf("cross-shard update not a singleton batch: %+v", last)
	}
}

// TestCheckpointTruncatesAndSkipsReplay: after a checkpoint the logs
// are empty, the checkpoint carries the content, and replay resumes
// from the checkpoint seq (pre-checkpoint batches never reappear).
func TestCheckpointTruncatesAndSkipsReplay(t *testing.T) {
	dir := t.TempDir()
	router := fakeRouter{shards: 2, width: 1000}
	c, _, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(2, 1000)
	c.Start(target)
	for i := 0; i < 10; i++ {
		if _, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: domain.Value(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Checkpoints != 1 || st.WALSize != 0 {
		t.Fatalf("post-checkpoint stats: %+v", st)
	}
	// Two more writes land in the (now empty) logs.
	for i := 10; i < 12; i++ {
		if _, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: domain.Value(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, rec, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !rec.HasCkpt[0] || !rec.HasCkpt[1] {
		t.Fatalf("checkpoints missing: %+v", rec.HasCkpt)
	}
	if segs := rec.CkptSegments[0]; len(segs) != 1 || len(segs[0].Vals) != 10 {
		t.Fatalf("shard 0 checkpoint carries %v, want one segment of 10 values", segs)
	}
	if len(rec.Batches) != 2 {
		t.Fatalf("replay has %d batches, want 2 post-checkpoint ones", len(rec.Batches))
	}
	for _, b := range rec.Batches {
		if b.Ops[0].V < 10 {
			t.Fatalf("pre-checkpoint batch resurfaced: %+v", b)
		}
	}
}

// TestCheckpointTrigger: a checkpoint runs when the logs together hold
// ckptLogBytes — after the batch that reaches or crosses the cap, once,
// leaving the logs empty — and never below it.
func TestCheckpointTrigger(t *testing.T) {
	const w = 1000 // per-shard width of the two-shard fake
	ins := func(v domain.Value) delta.Op { return delta.Op{Kind: delta.OpInsert, V: v} }
	upd := delta.Op{Kind: delta.OpUpdate, V: 1, New: 1}
	frame := func(op delta.Op) int64 { return int64(len(wal.AppendFrame(nil, 1, []delta.Op{op}))) }
	// exactly returns singleton writes whose frames total n bytes: inserts
	// (alternating shards) and, to land on n, updates of value 1.
	exactly := func(n int64) []delta.Op {
		fi, fu := frame(ins(0)), frame(upd)
		for u := int64(0); u*fu <= n; u++ {
			if (n-u*fu)%fi == 0 {
				var ops []delta.Op
				for k := int64(0); k < (n-u*fu)/fi; k++ {
					ops = append(ops, ins(domain.Value(k%2*w+2)))
				}
				for k := int64(0); k < u; k++ {
					ops = append(ops, upd)
				}
				return ops
			}
		}
		t.Fatalf("no write mix totals %d log bytes", n)
		return nil
	}
	type step struct {
		ops   []delta.Op
		force bool // an explicit Checkpoint after the writes
	}
	for _, tc := range []struct {
		name     string
		queued   int // inserts queued before Start, so they ride one batch
		steps    []step
		ckpts    int64
		walBytes int64
	}{
		{name: "one write", steps: []step{{ops: exactly(frame(ins(0)))}}, ckpts: 0, walBytes: frame(ins(0))},
		{name: "cap-1", steps: []step{{ops: exactly(ckptLogBytes - 1)}}, ckpts: 0, walBytes: ckptLogBytes - 1},
		{name: "reaches cap", steps: []step{{ops: exactly(ckptLogBytes)}}, ckpts: 1, walBytes: 0},
		{name: "crosses cap", steps: []step{{ops: exactly(ckptLogBytes - 1)}, {ops: []delta.Op{ins(3)}}}, ckpts: 1, walBytes: 0},
		{name: "crosses twice", steps: []step{{ops: exactly(ckptLogBytes)}, {ops: exactly(ckptLogBytes - 1)}, {ops: []delta.Op{ins(3)}}}, ckpts: 2, walBytes: 0},
		{name: "one batch far past cap", queued: ckptLogBytes / 6, ckpts: 1, walBytes: 0},
		{name: "forced checkpoint restarts the count", steps: []step{{ops: exactly(ckptLogBytes - 1), force: true}, {ops: exactly(ckptLogBytes - 1)}}, ckpts: 1, walBytes: ckptLogBytes - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, _, err := Open(Config{Dir: dir, MaxBatch: 1 << 14}, fakeRouter{shards: 2, width: w})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			target := newFakeTarget(2, w)
			target.content[1] = 1 // what the updates rewrite
			var wg sync.WaitGroup
			for k := 0; k < tc.queued; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					if _, err := c.Submit(ins(domain.Value(k % (2 * w)))); err != nil {
						t.Error(err)
					}
				}(k)
			}
			for len(c.reqs) < tc.queued {
				time.Sleep(time.Millisecond)
			}
			c.Start(target)
			wg.Wait()
			if tc.queued > 0 && target.batchCount() != 1 {
				t.Fatalf("%d queued writes rode %d batches, want 1", tc.queued, target.batchCount())
			}
			for _, st := range tc.steps {
				for _, op := range st.ops {
					if ok, err := c.Submit(op); err != nil || !ok {
						t.Fatalf("%+v: ok=%v err=%v", op, ok, err)
					}
				}
				if st.force {
					if err := c.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if st := c.Stats(); st.Checkpoints != tc.ckpts || st.WALSize != tc.walBytes {
				t.Fatalf("checkpoints %d, WALSize %d; want %d, %d", st.Checkpoints, st.WALSize, tc.ckpts, tc.walBytes)
			}
		})
	}
}

// TestTornTailDiscardedOnOpen: bytes of a torn frame appended to a
// shard log vanish on reopen; intact batches survive.
func TestTornTailDiscardedOnOpen(t *testing.T) {
	dir := t.TempDir()
	router := fakeRouter{shards: 1, width: 1 << 40}
	c, _, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(1, 1<<40)
	c.Start(target)
	for i := 0; i < 5; i++ {
		if _, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: domain.Value(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn frame at the tail.
	path := filepath.Join(dir, "shard-0000.wal")
	torn := wal.AppendFrame(nil, 99, []delta.Op{{Kind: delta.OpInsert, V: 42}})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-4]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, rec, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var n int
	for _, b := range rec.Batches {
		n += len(b.Ops)
		for _, op := range b.Ops {
			if op.V == 42 {
				t.Fatal("torn frame replayed")
			}
		}
	}
	if n != 5 {
		t.Fatalf("replayed %d ops, want 5", n)
	}
	if rec.LastSeq >= 99 {
		t.Fatalf("torn seq leaked into LastSeq %d", rec.LastSeq)
	}
}

// TestFailedBatchRollsBackAndBurnsSeq: an append fault on one shard
// nacks the whole batch, rolls the already-appended frames back out of
// the other shards' logs, and burns the batch's seq — so recovery sees
// neither the nacked ops nor a later acknowledged batch shadowed under
// a reused seq. The committer itself stays healthy.
func TestFailedBatchRollsBackAndBurnsSeq(t *testing.T) {
	dir := t.TempDir()
	router := fakeRouter{shards: 2, width: 1000}
	c, _, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	c.failAppend = func(s int) error {
		if s == 1 {
			return errors.New("injected append fault")
		}
		return nil
	}
	target := newFakeTarget(2, 1000)
	// Queue one op per shard before the loop starts, so both land in a
	// single batch: shard 0's frame is appended first (shard order is
	// deterministic), then shard 1's append faults.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, v := range []domain.Value{5, 1500} {
		wg.Add(1)
		go func(i int, v domain.Value) {
			defer wg.Done()
			_, errs[i] = c.Submit(delta.Op{Kind: delta.OpInsert, V: v})
		}(i, v)
	}
	for len(c.reqs) < 2 {
		time.Sleep(time.Millisecond)
	}
	c.Start(target)
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "append shard 1") {
			t.Fatalf("writer %d: err=%v, want the append fault", i, err)
		}
	}
	if n := target.batchCount(); n != 0 {
		t.Fatalf("failed batch applied: %d batches", n)
	}
	// The committer is not halted: the next write (shard 0 only)
	// commits, and must not share the burned seq.
	if ok, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: 7}); err != nil || !ok {
		t.Fatalf("post-failure insert: ok=%v err=%v", ok, err)
	}
	st := c.Stats()
	if st.WriteErrors != 2 || !strings.Contains(st.LastError, "append shard 1") {
		t.Fatalf("failure not surfaced in stats: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 1 {
		t.Fatalf("recovered %d batches, want only the acknowledged one: %+v", len(rec.Batches), rec.Batches)
	}
	b := rec.Batches[0]
	if len(b.Ops) != 1 || b.Ops[0].V != 7 {
		t.Fatalf("recovered batch carries %+v, want the acknowledged insert 7", b.Ops)
	}
	if b.Seq != 2 {
		t.Fatalf("acknowledged batch at seq %d, want 2 (seq 1 burned by the failed batch)", b.Seq)
	}
}

// TestApplyErrorHaltsCommitter: a batch that is durably logged but
// rejected by the apply side halts the committer — writers get the
// halt error (not a clean refusal), nothing further commits or
// checkpoints, and reopening replays the logged batch so log and state
// converge.
func TestApplyErrorHaltsCommitter(t *testing.T) {
	dir := t.TempDir()
	router := fakeRouter{shards: 1, width: 1 << 40}
	c, _, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(1, 1<<40)
	c.Start(target)
	if ok, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: 1}); err != nil || !ok {
		t.Fatalf("insert 1: ok=%v err=%v", ok, err)
	}
	target.failNextApply(errors.New("apply boom"))
	if _, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: 2}); err == nil || !strings.Contains(err.Error(), "halted") {
		t.Fatalf("apply fault returned %v, want halt", err)
	}
	// Halted: later writes and checkpoints refuse without touching the
	// logs or the target.
	if _, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: 3}); err == nil || !strings.Contains(err.Error(), "halted") {
		t.Fatalf("post-halt submit returned %v", err)
	}
	if err := c.Checkpoint(); err == nil || !strings.Contains(err.Error(), "halted") {
		t.Fatalf("post-halt checkpoint returned %v", err)
	}
	if n := target.batchCount(); n != 1 {
		t.Fatalf("target saw %d batches after halt, want 1", n)
	}
	if st := c.Stats(); st.WriteErrors < 2 || st.LastError == "" {
		t.Fatalf("halt not surfaced in stats: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The rejected batch was durably logged: recovery replays it (the
	// halt error told the writer its outcome was indeterminate). The
	// never-logged post-halt insert 3 does not reappear.
	_, rec, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	var vals []domain.Value
	for _, b := range rec.Batches {
		for _, op := range b.Ops {
			vals = append(vals, op.V)
		}
	}
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("recovered ops %v, want [1 2]", vals)
	}
}

// TestCheckpointCrashBeforeManifestRecovers: a checkpoint that dies
// after writing some shards' capture files but before the manifest
// rename leaves the previous generation fully active — recovery (with a
// cross-shard update in the window, the case a per-shard checkpoint
// protocol loses) reproduces the exact committed content and sweeps the
// orphaned files.
func TestCheckpointCrashBeforeManifestRecovers(t *testing.T) {
	dir := t.TempDir()
	router := fakeRouter{shards: 2, width: 1000}
	c, _, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	target := newFakeTarget(2, 1000)
	c.Start(target)
	for i := 0; i < 10; i++ {
		if _, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: domain.Value(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil { // generation 1 commits
		t.Fatal(err)
	}
	// Post-checkpoint window: writes on both shards plus a cross-shard
	// update, which is logged only in the old value's (shard 0's) log.
	for _, v := range []domain.Value{500, 1800} {
		if _, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: v}); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := c.Submit(delta.Op{Kind: delta.OpUpdate, V: 3, New: 1900}); err != nil || !ok {
		t.Fatalf("cross-shard update: ok=%v err=%v", ok, err)
	}
	want := target.snapshot()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate generation 2 crashing mid-write: shard 0's capture file
	// exists (with a seq that would wrongly skip the whole window were
	// it loaded), shard 1's does not, and the manifest was never
	// renamed.
	if err := wal.WriteCheckpoint(ckptPath(dir, 0, 2), 999, []wal.Segment{{Rng: domain.Range{Lo: 0, Hi: 999}}}); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	got := newFakeTarget(2, 1000)
	for _, segs := range rec.CkptSegments {
		for _, sg := range segs {
			for _, v := range sg.Vals {
				got.content[v]++
			}
		}
	}
	for _, b := range rec.Batches {
		if _, err := got.ApplyOps(b.Ops); err != nil {
			t.Fatal(err)
		}
	}
	for v, n := range want {
		if got.content[v] != n {
			t.Fatalf("recovered content[%d]=%d, want %d", v, got.content[v], n)
		}
	}
	for v, n := range got.content {
		if n != 0 && want[v] != n {
			t.Fatalf("recovery resurrected content[%d]=%d", v, n)
		}
	}
	if _, err := os.Stat(ckptPath(dir, 0, 2)); !os.IsNotExist(err) {
		t.Fatalf("orphaned generation-2 file not swept: %v", err)
	}
}

// TestCheckpointIntegrityFailsOpen: a corrupt manifest, a version 1
// checkpoint file, or a manifest whose committed generation is missing a
// shard's file, fails Open loudly instead of recovering from half a
// checkpoint.
func TestCheckpointIntegrityFailsOpen(t *testing.T) {
	dir := t.TempDir()
	router := fakeRouter{shards: 2, width: 1000}
	c, _, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(newFakeTarget(2, 1000))
	for _, v := range []domain.Value{1, 1001} {
		if _, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	good, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[12] ^= 1
	if err := os.WriteFile(manifestPath(dir), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Config{Dir: dir}, router); err == nil {
		t.Fatal("corrupt manifest opened silently")
	}

	if err := os.WriteFile(manifestPath(dir), good, 0o644); err != nil {
		t.Fatal(err)
	}
	// A version 1 checkpoint (one unsegmented value dump) is refused
	// with an error naming the version, not read.
	v1 := append([]byte("SOCKPT01"), make([]byte, 20)...)
	if err := os.WriteFile(ckptPath(dir, 1, 1), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Config{Dir: dir}, router); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version 1 checkpoint opened: %v", err)
	}

	if err := os.Remove(ckptPath(dir, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Config{Dir: dir}, router); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing shard checkpoint opened: %v", err)
	}
}

// TestSubmitAfterCloseFails cleanly rejects instead of hanging.
func TestSubmitAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	router := fakeRouter{shards: 1, width: 1 << 40}
	c, _, err := Open(Config{Dir: dir}, router)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(newFakeTarget(1, 1<<40))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(delta.Op{Kind: delta.OpInsert, V: 1}); err == nil {
		t.Fatal("submit after close succeeded")
	}
}
