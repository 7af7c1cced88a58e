package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"selforg/internal/compress"
	"selforg/internal/domain"
	"selforg/internal/model"
)

// linearOverlap is the reference the binary-searched child window is
// held to: every child of n overlapping q, each one tested.
func linearOverlap(n *node, q domain.Range) []*node {
	var out []*node
	for _, c := range n.children {
		if c.seg.Rng.Overlaps(q) {
			out = append(out, c)
		}
	}
	return out
}

// linearCover is Algorithm 3 over linearOverlap.
func linearCover(n *node, q domain.Range, cover *[]*node) bool {
	if n.isLeaf() {
		if n.seg.Virtual {
			return false
		}
		*cover = append(*cover, n)
		return true
	}
	start := len(*cover)
	for _, c := range linearOverlap(n, q) {
		if !linearCover(c, q, cover) {
			*cover = (*cover)[:start]
			if n.seg.Virtual {
				return false
			}
			*cover = append(*cover, n)
			return true
		}
	}
	return true
}

// linearNeedsAdaptation is leafNeedsAdaptation over linearOverlap.
func linearNeedsAdaptation(n *node, q domain.Range) bool {
	if !n.isLeaf() {
		for _, c := range linearOverlap(n, q) {
			if linearNeedsAdaptation(c, q) {
				return true
			}
		}
		return false
	}
	if n.seg.Virtual {
		return true
	}
	return n.seg.Rng.Width() >= 2 && domain.Classify(n.seg.Rng, q) != domain.CoversAll
}

// probeRanges lists the queries the cover walk is checked on over a tree
// with the given extent: whole, beyond and outside the extent, straddling
// its ends, empty, and for sampled nodes single values at and ranges
// touching their bounds from either side.
func probeRanges(root *node, ext domain.Range, rng *rand.Rand) []domain.Range {
	qs := []domain.Range{
		ext,
		{Lo: math.MinInt64, Hi: math.MaxInt64},
		{Lo: ext.Lo - 100, Hi: ext.Lo - 1},
		{Lo: ext.Hi + 1, Hi: ext.Hi + 100},
		{Lo: ext.Lo - 10, Hi: ext.Lo + 10},
		{Lo: ext.Hi - 10, Hi: ext.Hi + 10},
		domain.Empty(),
	}
	var nodes []*node
	root.walk(func(n *node, _ int) { nodes = append(nodes, n) })
	for i := 0; i < 24; i++ {
		r := nodes[rng.Intn(len(nodes))].seg.Rng
		qs = append(qs,
			domain.Range{Lo: r.Lo, Hi: r.Lo},
			domain.Range{Lo: r.Hi, Hi: r.Hi},
			domain.Range{Lo: r.Hi, Hi: r.Hi + 1},
			domain.Range{Lo: r.Lo - 1, Hi: r.Lo},
			r,
			domain.Range{Lo: r.Lo + 1, Hi: r.Hi + 1 + rng.Int63n(500)},
		)
	}
	return qs
}

// checkCoverWalk holds the binary-searched walk on root to the linear
// reference for every probe: the child window of every node, the cover
// (same nodes, same order), and the adaptation check from the root and
// from every cover node.
func checkCoverWalk(t *testing.T, name string, root *node, qs []domain.Range) {
	t.Helper()
	for _, q := range qs {
		root.walk(func(n *node, _ int) {
			if got, want := n.overlapChildren(q), linearOverlap(n, q); !slices.Equal(got, want) {
				t.Fatalf("%s: children of %v overlapping %v: %d, want %d", name, n.seg, q, len(got), len(want))
			}
		})
		var want []*node
		if !linearCover(root, q, &want) {
			t.Fatalf("%s: reference finds no cover for %v", name, q)
		}
		cover := getCover(root, q)
		if !slices.Equal(cover, want) {
			t.Fatalf("%s: cover of %v has %d nodes, want %d", name, q, len(cover), len(want))
		}
		if got, want := leafNeedsAdaptation(root, q), linearNeedsAdaptation(root, q); got != want {
			t.Fatalf("%s: root needs adaptation for %v = %v, want %v", name, q, got, want)
		}
		for _, c := range cover {
			if got, want := leafNeedsAdaptation(c, q), linearNeedsAdaptation(c, q); got != want {
				t.Fatalf("%s: cover node %v needs adaptation for %v = %v, want %v", name, c.seg, q, got, want)
			}
		}
	}
}

// TestCoverWalkMatchesLinear drives Replicators — compression off and
// Auto, APM and an always-splitting model — with random queries and,
// every few queries, holds the cover walk on the current root to the
// linear reference filter.
func TestCoverWalkMatchesLinear(t *testing.T) {
	ext := domain.NewRange(0, 9_999)
	for _, mode := range []compress.Mode{compress.Off, compress.Auto} {
		for _, m := range []func() model.Model{
			func() model.Model { return model.NewAPM(256, 1024) },
			func() model.Model { return model.Always{} },
		} {
			name := fmt.Sprintf("%v/%s", mode, m().Name())
			rng := rand.New(rand.NewSource(31))
			vals := make([]domain.Value, 5_000)
			for i := range vals {
				vals[i] = rng.Int63n(ext.Width())
			}
			r := NewReplicator(ext, vals, 4, m(), nil)
			r.SetCompression(mode)
			for i := 0; i < 300; i++ {
				lo := rng.Int63n(ext.Width())
				r.Count(domain.Range{Lo: lo, Hi: lo + rng.Int63n(800)})
				if i%25 == 0 {
					root := r.eng.Base()
					checkCoverWalk(t, name, root, probeRanges(root, ext, rng))
				}
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// coverSink keeps the slices the allocation bars build on the heap, as
// getCover's result is.
var coverSink []*node

// TestCoverWalkAllocatesOnlyItsResult is the allocation bar of the walk:
// on a converged tree getCover allocates what appending its cover to a
// nil slice allocates, and the adaptation check nothing.
func TestCoverWalkAllocatesOnlyItsResult(t *testing.T) {
	r, qs := hotReplicator()
	root := r.eng.Base()
	if n := len(root.children); n < 100 {
		t.Fatalf("converged tree has %d children under the sentinel", n)
	}
	for _, q := range qs[:32] {
		cover := getCover(root, q)
		result := testing.AllocsPerRun(20, func() {
			coverSink = nil
			for range cover {
				coverSink = append(coverSink, nil)
			}
		})
		if got := testing.AllocsPerRun(20, func() { coverSink = getCover(root, q) }); got > result {
			t.Fatalf("getCover(%v) allocates %.0f times for a %d-node cover, its result %.0f", q, got, len(cover), result)
		}
		if got := testing.AllocsPerRun(20, func() { coverNeedsAdaptation(cover, q) }); got != 0 {
			t.Fatalf("coverNeedsAdaptation(%v) allocates %.0f times", q, got)
		}
	}
}

// TestCoverWalkPinnedRootsConcurrent walks pinned roots from several
// lock-free readers while a writer reorganizes the tree: every reader's
// cover of its own snapshot matches the linear reference, and the race
// detector sees no write to a published node.
func TestCoverWalkPinnedRootsConcurrent(t *testing.T) {
	ext := domain.NewRange(0, 9_999)
	rng := rand.New(rand.NewSource(7))
	vals := make([]domain.Value, 5_000)
	for i := range vals {
		vals[i] = rng.Int63n(ext.Width())
	}
	r := NewReplicator(ext, vals, 4, model.NewAPM(256, 1024), nil)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		g := rand.New(rand.NewSource(8))
		for i := 0; i < 400; i++ {
			lo := g.Int63n(ext.Width())
			r.Select(domain.Range{Lo: lo, Hi: lo + g.Int63n(600)})
		}
	}()
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-done:
					return
				default:
				}
				root, _ := r.eng.Pin()
				lo := g.Int63n(ext.Width())
				q := domain.Range{Lo: lo, Hi: lo + g.Int63n(600)}
				var want []*node
				linearCover(root, q, &want)
				if !slices.Equal(getCover(root, q), want) {
					errs <- fmt.Errorf("reader %d: cover of %v differs from the linear reference", w, q)
					return
				}
				if leafNeedsAdaptation(root, q) != linearNeedsAdaptation(root, q) {
					errs <- fmt.Errorf("reader %d: adaptation check of %v differs from the linear reference", w, q)
					return
				}
				r.Count(q)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}
