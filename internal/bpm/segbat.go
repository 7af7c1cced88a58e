package bpm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"selforg/internal/bat"
	"selforg/internal/domain"
	"selforg/internal/model"
)

// This file provides the segmented-BAT registry behind the bpm.* MAL
// module of §3.1: a column "split into value-ranged segments" addressed
// through the segment meta-index, with a predicate-enhanced iterator
// (bpm.newIterator / bpm.hasMoreElements) and the reorganizing hook the
// segment optimizer injects after selections (§3.3).

var segIDCounter atomic.Int64

// BATSegment is one value-ranged piece of a segmented column: tail values
// lie in the half-open interval [Lo, Hi).
type BATSegment struct {
	ID     int64
	Lo, Hi float64
	B      *bat.BAT
}

// bytes returns the accounted logical size of the segment — the measure
// the segmentation models reason about.
func (s *BATSegment) bytes(elemSize int64) int64 { return int64(s.B.Len()) * elemSize }

// SegmentedBAT is a column organized as adjacent value-ranged segments,
// registered under a name in the Store ("bpm.take(\"sys_P_ra\")").
//
// Its segment tails are plain dbl vectors: the engine's per-segment
// compression (internal/compress) serves internal/core, not this
// figure harness.
//
// It is safe for concurrent use: the segment list is guarded by a
// read-write lock — lookups, iteration and statistics take the read side,
// while the reorganizing module (Adapt) takes the write side. Individual
// segment BATs are immutable once published; Adapt replaces split
// segments with fresh ones instead of rewriting payloads.
type SegmentedBAT struct {
	Name     string
	ElemSize int64

	mu   sync.RWMutex
	segs []*BATSegment // ascending by [Lo, Hi)
}

// NewSegmentedBAT wraps a single [oid,dbl] BAT into a one-segment column
// covering [lo, hi).
func NewSegmentedBAT(name string, b *bat.BAT, lo, hi float64, elemSize int64) *SegmentedBAT {
	if b.TailKind() != bat.KDbl {
		panic("bpm: segmented bats require a dbl tail")
	}
	if hi <= lo {
		panic(fmt.Sprintf("bpm: invalid segment bounds [%g, %g)", lo, hi))
	}
	return &SegmentedBAT{
		Name:     name,
		ElemSize: elemSize,
		segs:     []*BATSegment{{ID: segIDCounter.Add(1), Lo: lo, Hi: hi, B: b}},
	}
}

// SegmentCount returns the number of segments.
func (s *SegmentedBAT) SegmentCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.segs)
}

// Segment returns the i-th segment in value order.
func (s *SegmentedBAT) Segment(i int) *BATSegment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.segs[i]
}

// Segments returns a snapshot copy of the segment list in value order.
// The segments themselves are shared (and immutable once published).
func (s *SegmentedBAT) Segments() []*BATSegment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*BATSegment(nil), s.segs...)
}

// Overlapping returns the indices [loIdx, hiIdx) of segments whose value
// range intersects [lo, hi] — the meta-index pre-selection.
func (s *SegmentedBAT) Overlapping(lo, hi float64) (int, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.overlapping(lo, hi)
}

// overlapping is the lock-free core of Overlapping; caller holds mu.
func (s *SegmentedBAT) overlapping(lo, hi float64) (int, int) {
	loIdx := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].Hi > lo })
	hiIdx := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].Lo > hi })
	if loIdx > hiIdx {
		loIdx = hiIdx
	}
	return loIdx, hiIdx
}

// TotalRows returns the stored association count.
func (s *SegmentedBAT) TotalRows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, sg := range s.segs {
		n += sg.B.Len()
	}
	return n
}

// TotalBytes returns the accounted logical storage.
func (s *SegmentedBAT) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.totalBytes()
}

// totalBytes is the lock-free core of TotalBytes; caller holds mu.
func (s *SegmentedBAT) totalBytes() int64 {
	var n int64
	for _, sg := range s.segs {
		n += sg.bytes(s.ElemSize)
	}
	return n
}

// Flatten concatenates all segments into one BAT (diagnostics/tests).
func (s *SegmentedBAT) Flatten() *bat.BAT {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := bat.Empty(bat.KOid, bat.KDbl)
	for _, sg := range s.segs {
		for i := 0; i < sg.B.Len(); i++ {
			h, t := sg.B.Row(i)
			out.AppendRow(h, t)
		}
	}
	return out
}

// Validate checks the structural invariants: adjacency, ordering, and
// value containment.
func (s *SegmentedBAT) Validate() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.segs) == 0 {
		return fmt.Errorf("bpm: segmented bat %q has no segments", s.Name)
	}
	for i, sg := range s.segs {
		if sg.Hi <= sg.Lo {
			return fmt.Errorf("bpm: segment %d has empty range [%g, %g)", i, sg.Lo, sg.Hi)
		}
		if i > 0 && s.segs[i-1].Hi != sg.Lo {
			return fmt.Errorf("bpm: gap between segment %d (hi %g) and %d (lo %g)",
				i-1, s.segs[i-1].Hi, i, sg.Lo)
		}
		for r := 0; r < sg.B.Len(); r++ {
			v := sg.B.Tail.Get(r).AsDbl()
			if v < sg.Lo || v >= sg.Hi {
				return fmt.Errorf("bpm: segment %d value %g outside [%g, %g)", i, v, sg.Lo, sg.Hi)
			}
		}
	}
	return nil
}

// Dump renders the layout, e.g. "[0,10)#3 | [10,20)#5".
func (s *SegmentedBAT) Dump() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	parts := make([]string, len(s.segs))
	for i, sg := range s.segs {
		parts[i] = fmt.Sprintf("[%g,%g)#%d", sg.Lo, sg.Hi, sg.B.Len())
	}
	return strings.Join(parts, " | ")
}

// splitSegment replaces segment i by pieces cut at the given interior
// bounds (ascending, strictly inside the segment range). Data rows are
// partitioned by value. Returns the bytes rewritten: the split segment's
// logical size. Caller holds mu.
func (s *SegmentedBAT) splitSegment(i int, cuts ...float64) int64 {
	sg := s.segs[i]
	for j, c := range cuts {
		if c <= sg.Lo || c >= sg.Hi {
			panic(fmt.Sprintf("bpm: cut %g outside (%g, %g)", c, sg.Lo, sg.Hi))
		}
		if j > 0 && cuts[j-1] >= c {
			panic("bpm: cuts must ascend")
		}
	}
	bounds := append([]float64{sg.Lo}, cuts...)
	bounds = append(bounds, sg.Hi)
	pieces := make([]*BATSegment, len(bounds)-1)
	for p := range pieces {
		pieces[p] = &BATSegment{
			ID: segIDCounter.Add(1),
			Lo: bounds[p], Hi: bounds[p+1],
			B: bat.Empty(bat.KOid, bat.KDbl),
		}
	}
	for r := 0; r < sg.B.Len(); r++ {
		h, t := sg.B.Row(r)
		v := t.AsDbl()
		// Binary search the destination piece.
		p := sort.Search(len(pieces), func(x int) bool { return v < pieces[x].Hi })
		pieces[p].B.AppendRow(h, t)
	}
	out := make([]*BATSegment, 0, len(s.segs)+len(pieces)-1)
	out = append(out, s.segs[:i]...)
	out = append(out, pieces...)
	out = append(out, s.segs[i+1:]...)
	s.segs = out
	return sg.bytes(s.ElemSize)
}

// Adapt runs the §3.3 reorganizing module over the segments overlapping
// the selection [lo, hi]: each overlapping segment is offered to the
// segmentation model (scaled onto the integer domain the models speak)
// and split accordingly. It returns the bytes rewritten, so callers can
// account adaptation cost. Adapt is the column's single-writer path: it
// takes the write lock, so it never races with concurrent lookups or
// iterators.
func (s *SegmentedBAT) Adapt(lo, hi float64, m model.Model) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	const scale = 1 << 20 // fixed-point scaling for the model's domain view
	var rewritten int64
	total := s.totalBytes()
	loI, hiI := s.overlapping(lo, hi)
	q := domain.Range{Lo: int64(lo * scale), Hi: int64(hi * scale)}
	for i := hiI - 1; i >= loI; i-- {
		sg := s.segs[i]
		info := model.SegmentInfo{
			Rng:        domain.Range{Lo: int64(sg.Lo * scale), Hi: int64(sg.Hi*scale) - 1},
			Bytes:      sg.bytes(s.ElemSize),
			TotalBytes: total,
		}
		if !info.Rng.Overlaps(q) || info.Rng.Width() < 2 {
			continue
		}
		d := m.Decide(q, info)
		switch d.Action {
		case model.NoSplit:
		case model.SplitBounds:
			var cuts []float64
			if lo > sg.Lo && lo < sg.Hi {
				cuts = append(cuts, lo)
			}
			if hi > sg.Lo && hi < sg.Hi && hi > lo {
				cuts = append(cuts, hi)
			}
			if len(cuts) > 0 {
				rewritten += s.splitSegment(i, cuts...)
			}
		case model.SplitPoint:
			cut := float64(d.Point) / scale
			if cut > sg.Lo && cut < sg.Hi {
				rewritten += s.splitSegment(i, cut)
			}
		}
	}
	return rewritten
}

// Store is the named registry of segmented columns behind bpm.take. It is
// safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	cols map[string]*SegmentedBAT
}

// NewStore creates an empty registry.
func NewStore() *Store { return &Store{cols: make(map[string]*SegmentedBAT)} }

// Register adds a segmented column under its name.
func (st *Store) Register(sb *SegmentedBAT) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.cols[sb.Name]; dup {
		panic(fmt.Sprintf("bpm: column %q registered twice", sb.Name))
	}
	st.cols[sb.Name] = sb
}

// Take looks a segmented column up by name — MAL's bpm.take.
func (st *Store) Take(name string) (*SegmentedBAT, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	sb, ok := st.cols[name]
	if !ok {
		return nil, fmt.Errorf("bpm: unknown segmented column %q", name)
	}
	return sb, nil
}

// Names lists the registered columns.
func (st *Store) Names() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, 0, len(st.cols))
	for n := range st.cols {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
