package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"selforg/internal/compress"
	"selforg/internal/domain"
	"selforg/internal/model"
)

// traceEvent is one Tracer call.
type traceEvent struct {
	kind      byte // 'S'can, 'M'aterialize, 'D'rop
	id, bytes int64
}

// recTracer records every event in call order. It takes no lock: a call
// from a scan worker would race with the querying goroutine's calls,
// which the race detector reports.
type recTracer struct{ events []traceEvent }

func (r *recTracer) Scan(id, b int64)        { r.events = append(r.events, traceEvent{'S', id, b}) }
func (r *recTracer) Materialize(id, b int64) { r.events = append(r.events, traceEvent{'M', id, b}) }
func (r *recTracer) Drop(id, b int64)        { r.events = append(r.events, traceEvent{'D', id, b}) }

// renumbered returns events with segment IDs replaced by their order of
// first appearance: IDs come from a process-wide counter, so two columns
// built alike differ in them.
func renumbered(events []traceEvent) []traceEvent {
	ids := map[int64]int64{}
	out := make([]traceEvent, len(events))
	for i, e := range events {
		if _, ok := ids[e.id]; !ok {
			ids[e.id] = int64(len(ids))
		}
		out[i] = traceEvent{e.kind, ids[e.id], e.bytes}
	}
	return out
}

// tracerStream is a seeded mix of narrow ranges (which split the large
// segments they cut), wide ranges (which span many segments, so scans
// fan out) and the whole extent.
func tracerStream(dom domain.Range, n int) []domain.Range {
	rng := rand.New(rand.NewSource(41))
	qs := make([]domain.Range, n)
	for i := range qs {
		width := dom.Width() / 100
		switch i % 5 {
		case 3:
			width = dom.Width() / 3
		case 4:
			qs[i] = dom
			continue
		}
		lo := dom.Lo + rng.Int63n(dom.Width()-width)
		qs[i] = domain.NewRange(lo, lo+width-1)
	}
	return qs
}

// TestTracerOrderIndependentOfParallelism: scan workers never call the
// Tracer — the querying goroutine emits every event in plan order — so
// one goroutine's event sequence is the same at Parallelism 1, 0
// (adaptive) and 4, for both strategies with compression off and auto.
// At Parallelism 1 the Segmenter's sequence is Algorithm 1's: segments in
// high-to-low order, each split one as Scan(seg), Materialize(pieces…),
// Drop(seg).
func TestTracerOrderIndependentOfParallelism(t *testing.T) {
	const n, elem = 1 << 18, 32 // 8 MB logical: wide scans pass the adaptive fan-out bar
	dom := domain.NewRange(0, 1<<24-1)
	rng := rand.New(rand.NewSource(40))
	vals := make([]domain.Value, n)
	for i := range vals {
		vals[i] = rng.Int63n(dom.Width())
	}
	qs := tracerStream(dom, 60)
	type strategy interface {
		DeltaStrategy
		SetParallelism(int)
		SetCompression(compress.Mode)
	}
	builds := map[string]func(Tracer) strategy{
		"segm": func(tr Tracer) strategy {
			return NewSegmenter(dom, slices.Clone(vals), elem, model.NewAPM(64<<10, 256<<10), tr)
		},
		"repl": func(tr Tracer) strategy {
			return NewReplicator(dom, slices.Clone(vals), elem, model.NewAPM(64<<10, 256<<10), tr)
		},
	}
	for name, build := range builds {
		for _, mode := range []compress.Mode{compress.Off, compress.Auto} {
			t.Run(fmt.Sprintf("%s/%v", name, mode), func(t *testing.T) {
				var want []traceEvent
				for _, par := range []int{1, 0, 4} {
					tr := &recTracer{}
					s := build(tr)
					s.SetCompression(mode)
					s.SetParallelism(par)
					splits := 0
					for i, q := range qs {
						var before map[int64]int
						if seg, ok := s.(*Segmenter); ok && par == 1 {
							before = segmentPositions(seg)
						}
						from := len(tr.events)
						var st QueryStats
						if i%2 == 0 {
							_, st = s.SelectRope(q)
						} else {
							_, st = s.Count(q)
						}
						splits += st.Splits
						if before != nil {
							checkAlgorithm1Order(t, i, before, tr.events[from:], st.Splits)
						}
					}
					if splits == 0 {
						t.Fatal("no query split: the stream tests nothing")
					}
					got := renumbered(tr.events)
					if par == 1 {
						want = got
						continue
					}
					if !slices.Equal(got, want) {
						t.Fatalf("parallelism %d: %d tracer events differ from parallelism 1's %d", par, len(got), len(want))
					}
				}
			})
		}
	}
}

// segmentPositions maps the segment IDs of a Segmenter's current list to
// their list positions.
func segmentPositions(s *Segmenter) map[int64]int {
	l := s.List()
	pos := make(map[int64]int, l.Len())
	for i := 0; i < l.Len(); i++ {
		pos[l.Seg(i).ID] = i
	}
	return pos
}

// checkAlgorithm1Order holds one query's events to Algorithm 1: every
// Scan names a segment of the list the query planned on, at a position
// below the previous Scan's; a Scan followed by Materialize events is a
// split, whose pieces are fresh segments and which ends in Drop of the
// scanned segment.
func checkAlgorithm1Order(t *testing.T, q int, before map[int64]int, events []traceEvent, splits int) {
	t.Helper()
	last, drops := -1, 0
	for i := 0; i < len(events); {
		e := events[i]
		pos, ok := before[e.id]
		if e.kind != 'S' || !ok {
			t.Fatalf("query %d: event %d is %c(%d), want a Scan of a planned segment", q, i, e.kind, e.id)
		}
		if last >= 0 && pos >= last {
			t.Fatalf("query %d: Scan of segment %d after segment %d, want high-to-low", q, pos, last)
		}
		last = pos
		i++
		if i == len(events) || events[i].kind != 'M' {
			continue
		}
		for ; i < len(events) && events[i].kind == 'M'; i++ {
			if _, old := before[events[i].id]; old {
				t.Fatalf("query %d: Materialize of planned segment %d, want a fresh piece", q, events[i].id)
			}
		}
		if i == len(events) || events[i].kind != 'D' || events[i].id != e.id {
			t.Fatalf("query %d: split of segment %d does not end in its Drop", q, pos)
		}
		drops++
		i++
	}
	if drops != splits {
		t.Fatalf("query %d: %d Scan-Materialize-Drop groups, %d splits", q, drops, splits)
	}
}
