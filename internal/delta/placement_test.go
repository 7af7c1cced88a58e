package delta

import (
	"reflect"
	"testing"

	"selforg/internal/domain"
)

// state is the store after one Apply call.
type state struct {
	runs, pending int
	pubs, wm      int64
}

// oneByOne is the state sequence of an insert-only script of n ops
// applied as n one-op calls: every call mints one version and publishes
// once, and the tail seals into a run after each call listed in seals.
func oneByOne(n int, seals ...int) []state {
	out := make([]state, n)
	runs := 0
	for k := 1; k <= n; k++ {
		if len(seals) > 0 && seals[0] == k {
			runs, seals = runs+1, seals[1:]
		}
		out[k-1] = state{runs: runs, pending: k, pubs: int64(k), wm: int64(k)}
	}
	return out
}

// up is lo, lo+1, …, hi; down is hi, hi-1, …, lo.
func up(lo, hi domain.Value) []domain.Value {
	var out []domain.Value
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func down(hi, lo domain.Value) []domain.Value {
	var out []domain.Value
	for v := hi; v >= lo; v-- {
		out = append(out, v)
	}
	return out
}

func cat(parts ...[]domain.Value) []domain.Value {
	var out []domain.Value
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// inserts is one insert op per value, in order.
func inserts(vs []domain.Value) []Op {
	ops := make([]Op, len(vs))
	for i, v := range vs {
		ops[i] = Op{Kind: OpInsert, V: v}
	}
	return ops
}

// applyMode is one way of feeding a row's script to Apply.
type applyMode struct {
	// cuts is the op count of each Apply call in order; nil is one op
	// per call.
	cuts []int
	// after is the store after each call.
	after []state
	// overlay is the snapshot's Overlay of the whole domain onto the
	// row's base, position for position: sorted runs in seal order, then
	// the tail in arrival order.
	overlay []domain.Value
}

// TestApplyPlacement pins the store's one placement rule, position for
// position: every fresh entry is appended to the tail, and the tail
// seals into ONE sorted run once an Apply call leaves it holding
// tailSealLen entries or more, whatever the batch size. Each row runs
// its script twice on fresh stores — as one-op Apply calls and as
// batches — and checks Runs, Pending, Publications and Watermark after
// every call, then the final Overlay order and CountDelta, and that
// Merge drains in write order either way. Scripts insert descending
// values, so a sealed run and the tail order the same values
// differently.
func TestApplyPlacement(t *testing.T) {
	rows := []struct {
		name   string
		script []Op
		base   []domain.Value // the base rows deletes validate against
		ver    int64          // stamp supplied to every call (0: mint)
		one    applyMode
		batch  applyMode
		// n and sum are CountDelta over the whole domain; ins and tombs
		// what Merge drains, in write order.
		n, sum    int64
		ins, tomb []domain.Value
	}{
		{
			name:   "63 entries stay in the tail",
			script: inserts(down(63, 1)),
			one:    applyMode{after: oneByOne(63), overlay: down(63, 1)},
			batch:  applyMode{cuts: []int{63}, after: []state{{0, 63, 1, 1}}, overlay: down(63, 1)},
			n:      63, sum: 2016, ins: down(63, 1),
		},
		{
			name:   "64 entries seal one run",
			script: inserts(down(64, 1)),
			one:    applyMode{after: oneByOne(64, 64), overlay: up(1, 64)},
			batch:  applyMode{cuts: []int{64}, after: []state{{1, 64, 1, 1}}, overlay: up(1, 64)},
			n:      64, sum: 2080, ins: down(64, 1),
		},
		{
			name:   "65 entries: one by one the 65th starts a new tail, batched it seals with the rest",
			script: inserts(down(65, 1)),
			one:    applyMode{after: oneByOne(65, 64), overlay: cat(up(2, 65), []domain.Value{1})},
			batch:  applyMode{cuts: []int{65}, after: []state{{1, 65, 1, 1}}, overlay: up(1, 65)},
			n:      65, sum: 2145, ins: down(65, 1),
		},
		{
			name:   "a 200-op batch seals exactly once",
			script: inserts(down(200, 1)),
			one: applyMode{after: oneByOne(200, 64, 128, 192),
				overlay: cat(up(137, 200), up(73, 136), up(9, 72), down(8, 1))},
			batch: applyMode{cuts: []int{200}, after: []state{{1, 200, 1, 1}}, overlay: up(1, 200)},
			n:     200, sum: 20100, ins: down(200, 1),
		},
		{
			name:   "batches of 40 seal once 80 are pending",
			script: inserts(down(80, 1)),
			one:    applyMode{after: oneByOne(80, 64), overlay: cat(up(17, 80), down(16, 1))},
			batch: applyMode{cuts: []int{40, 40}, after: []state{{0, 40, 1, 1}, {1, 80, 2, 2}},
				overlay: up(1, 80)},
			n: 80, sum: 3240, ins: down(80, 1),
		},
		{
			name:   "an update's two entries take the 63-entry tail past the threshold",
			script: append(inserts(down(63, 1)), Op{Kind: OpUpdate, V: 500, New: 64}),
			base:   []domain.Value{500},
			one: applyMode{after: append(oneByOne(63), state{1, 65, 64, 64}),
				overlay: up(1, 64)},
			batch: applyMode{cuts: []int{64}, after: []state{{1, 65, 1, 1}}, overlay: up(1, 64)},
			n:     63, sum: 2080 - 500, ins: cat(down(63, 1), []domain.Value{64}), tomb: []domain.Value{500},
		},
		{
			name: "tombstones are tail entries, cancels add none",
			script: []Op{
				{Kind: OpInsert, V: 3},
				{Kind: OpDelete, V: 100},          // tombstone
				{Kind: OpDelete, V: 3},            // cancels the pending insert
				{Kind: OpUpdate, V: 100, New: 50}, // tombstone + insert
			},
			base: []domain.Value{100, 100},
			one: applyMode{after: []state{{0, 1, 1, 1}, {0, 2, 2, 2}, {0, 2, 3, 3}, {0, 4, 4, 4}},
				overlay: []domain.Value{50}},
			batch: applyMode{cuts: []int{4}, after: []state{{0, 4, 1, 1}}, overlay: []domain.Value{50}},
			n:     -1, sum: 50 - 200, ins: []domain.Value{50}, tomb: []domain.Value{100, 100},
		},
		{
			name: "an all-refused batch mints no version and publishes nothing",
			script: []Op{
				{Kind: OpDelete, V: 7},
				{Kind: OpUpdate, V: 8, New: 9},
				{Kind: OpSkip, V: 1},
				{Kind: OpKind(9), V: 1}, // unknown kind
			},
			one:   applyMode{after: []state{{}, {}, {}, {}}},
			batch: applyMode{cuts: []int{4}, after: []state{{}}},
		},
		{
			name:   "a refused delete records its supplied stamp",
			script: []Op{{Kind: OpDelete, V: 7}},
			ver:    5,
			one:    applyMode{after: []state{{0, 0, 0, 5}}},
			batch:  applyMode{cuts: []int{1}, after: []state{{0, 0, 0, 5}}},
		},
	}
	for _, row := range rows {
		baseCount := func(v domain.Value) int64 {
			var n int64
			for _, b := range row.base {
				if b == v {
					n++
				}
			}
			return n
		}
		for _, m := range []struct {
			name string
			applyMode
		}{{"one-op", row.one}, {"batched", row.batch}} {
			t.Run(row.name+"/"+m.name, func(t *testing.T) {
				cuts := m.cuts
				if cuts == nil {
					cuts = make([]int, len(row.script))
					for i := range cuts {
						cuts[i] = 1
					}
				}
				if len(cuts) != len(m.after) {
					t.Fatalf("table: %d calls, %d states", len(cuts), len(m.after))
				}
				d := NewStore(4)
				script := row.script
				for i, k := range cuts {
					d.Apply(row.ver, script[:k], make([]bool, k), baseCount)
					script = script[k:]
					st := d.Stats()
					if got := (state{st.Runs, st.Pending, st.Publications, st.Watermark}); got != m.after[i] {
						t.Fatalf("after call %d: {runs pending pubs watermark} = %v, want %v", i+1, got, m.after[i])
					}
				}
				if len(script) != 0 {
					t.Fatalf("table: %d ops left uncut", len(script))
				}
				s := d.Snapshot()
				whole := domain.NewRange(-1<<62, 1<<62)
				base := append([]domain.Value(nil), row.base...)
				if got := s.Overlay(whole, base); !reflect.DeepEqual(nonNil(got), nonNil(m.overlay)) {
					t.Errorf("Overlay = %v\nwant %v", got, m.overlay)
				}
				if n, sum := s.CountDelta(whole); n != row.n || sum != row.sum {
					t.Errorf("CountDelta = (%d, %d), want (%d, %d)", n, sum, row.n, row.sum)
				}
				var ins, tomb []domain.Value
				if _, err := d.Merge(func(i, dl []domain.Value, commit func()) error {
					ins, tomb = i, dl
					commit()
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(nonNil(ins), nonNil(row.ins)) || !reflect.DeepEqual(nonNil(tomb), nonNil(row.tomb)) {
					t.Errorf("Merge drained inserts %v, tombstones %v\nwant %v, %v", ins, tomb, row.ins, row.tomb)
				}
				if st := d.Stats(); st.Runs != 0 || st.Pending != 0 {
					t.Errorf("after Merge: runs %d pending %d", st.Runs, st.Pending)
				}
			})
		}
	}
}

// nonNil maps a nil slice to an empty one, so DeepEqual compares
// contents only.
func nonNil(vs []domain.Value) []domain.Value {
	if vs == nil {
		return []domain.Value{}
	}
	return vs
}
