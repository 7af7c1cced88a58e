// Package segment implements the value-based column organization at the
// heart of the paper (§1, §3.1): a column is a collection of segments, each
// covering a contiguous range of attribute values, described by an
// in-memory sparse meta-index.
//
// Segments come in two flavours (§5): materialized segments carry real
// data, virtual segments only describe a range and an estimated size. The
// flat, adjacent, non-overlapping List is the layout used by adaptive
// segmentation (§4); the replica tree of adaptive replication (§5) reuses
// the same Segment type inside internal/core.
package segment

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"selforg/internal/compress"
	"selforg/internal/domain"
)

// idCounter hands out process-unique segment identities, used by the
// buffer manager and tracers to track segments across reorganizations.
var idCounter atomic.Int64

// presizeMax caps the rows a nil-destination AppendSelect reserves up
// front. Past it the result grows by append's doubling, so on skewed
// data, where the uniform estimate may far exceed the qualifying rows, a
// select reserves at most 256 KB it does not fill.
const presizeMax = 1 << 15

// Segment is one value-ranged piece of a column. A materialized segment
// carries its payload either raw (Vals) or compressed (Enc, produced by a
// compress.Codec when the self-organizing loop re-encodes the segment);
// at most one of the two is non-nil.
//
// Invariants: every payload value lies inside Rng; Virtual segments carry
// no payload and use EstCount as their size estimate.
//
// A materialized segment also carries a (count, sum) summary, fixed when
// its payload is: Count and Sum answer a query that covers the whole
// segment from the meta-index, without reading the payload.
//
// Concurrency contract: once a materialized segment is published in a
// List snapshot it is immutable — reorganization replaces segments with
// fresh ones instead of rewriting payloads, so lock-free readers can scan
// any snapshot they hold. (Encode is a construction-time operation: it
// may only run before the segment is published, or on segments owned
// exclusively by a single writer, as in the replica tree.)
type Segment struct {
	ID       int64
	Rng      domain.Range
	Vals     []domain.Value  // raw materialized payload (nil when Virtual or compressed)
	Enc      compress.Vector // compressed materialized payload (nil when raw or Virtual)
	Virtual  bool
	EstCount int64 // size estimate for virtual segments (elements)
	sum      int64 // Σ payload (two's-complement wrapping); 0 when Virtual
}

// NewMaterialized builds a materialized segment. It panics if any value
// falls outside rng — the meta-index must always describe the data exactly.
func NewMaterialized(rng domain.Range, vals []domain.Value) *Segment {
	return &Segment{ID: idCounter.Add(1), Rng: rng, Vals: vals, sum: checkedSum(rng, vals)}
}

// checkedSum returns Σ vals, panicking on the first value outside rng —
// the one pass that both guards the meta-index and fixes the summary:
// Split's branch-free sum and extremes, then guardRange.
func checkedSum(rng domain.Range, vals []domain.Value) int64 {
	var sum int64
	vmin, vmax := domain.Value(math.MaxInt64), domain.Value(math.MinInt64)
	for _, v := range vals {
		sum, vmin, vmax = sum+v, min(vmin, v), max(vmax, v)
	}
	guardRange(rng, vals, vmin, vmax)
	return sum
}

// guardRange is the O(1) range guard on the extremes vmin, vmax of vals;
// only a breach rescans vals, to name the first value outside rng.
func guardRange(rng domain.Range, vals []domain.Value, vmin, vmax domain.Value) {
	if len(vals) == 0 || rng.Contains(vmin) && rng.Contains(vmax) {
		return
	}
	for _, v := range vals {
		if !rng.Contains(v) {
			panic(fmt.Sprintf("segment: value %d outside range %v", v, rng))
		}
	}
}

// NewVirtual builds a virtual segment with an estimated element count.
func NewVirtual(rng domain.Range, estCount int64) *Segment {
	if estCount < 0 {
		estCount = 0
	}
	return &Segment{ID: idCounter.Add(1), Rng: rng, Virtual: true, EstCount: estCount}
}

// Count returns the (estimated, for virtual segments) number of elements.
func (s *Segment) Count() int64 {
	if s.Virtual {
		return s.EstCount
	}
	if s.Enc != nil {
		return int64(s.Enc.Len())
	}
	return int64(len(s.Vals))
}

// Sum returns the sum of the payload values (two's-complement wrapping,
// like any int64 sum) from the segment's summary — no payload read.
// Virtual segments report 0.
func (s *Segment) Sum() int64 { return s.sum }

// Bytes returns the (estimated) logical storage size given bytes per
// element — the uncompressed measure the segmentation models and the
// paper's cost formulas reason about, independent of encoding.
func (s *Segment) Bytes(elemSize int64) domain.ByteSize {
	return domain.ByteSize(s.Count() * elemSize)
}

// StoredBytes returns the physical storage size: the compressed footprint
// when the payload is encoded, the logical size otherwise. Scan and
// materialization accounting use this measure.
func (s *Segment) StoredBytes(elemSize int64) domain.ByteSize {
	if !s.Virtual && s.Enc != nil {
		return domain.ByteSize(s.Enc.StoredBytes())
	}
	return s.Bytes(elemSize)
}

// Encoding returns the payload's storage encoding (compress.Plain for raw
// and virtual segments).
func (s *Segment) Encoding() compress.Encoding {
	if s.Enc != nil {
		return s.Enc.Encoding()
	}
	return compress.Plain
}

// Encode converts a raw payload into the codec's chosen encoding. It is
// a no-op for virtual segments, a nil codec, or an already-encoded
// payload; it reports whether a (re-)encode happened.
func (s *Segment) Encode(c *compress.Codec) bool {
	if !c.Enabled() || s.Virtual || s.Enc != nil {
		return false
	}
	s.Enc = c.Encode(s.Vals)
	s.Vals = nil
	return true
}

// EncodedCopy returns a fresh segment with the same identity (ID and
// range) whose payload has been passed through the codec. The receiver is
// left untouched, so a writer can re-encode a whole published List
// copy-on-write (SetCompression) without disturbing concurrent readers of
// the old snapshot. With a disabled codec the copy keeps the raw payload.
func (s *Segment) EncodedCopy(c *compress.Codec) *Segment {
	cp := &Segment{ID: s.ID, Rng: s.Rng, Vals: s.Vals, Enc: s.Enc,
		Virtual: s.Virtual, EstCount: s.EstCount, sum: s.sum}
	cp.Encode(c)
	return cp
}

// Filled returns a fresh materialized raw segment with s's identity (ID
// and range) holding vals: the receiver (possibly published in an older
// tree snapshot) is left untouched, so lock-free readers of that
// snapshot never observe the fill. It panics if any value falls outside
// the range, like NewMaterialized.
func (s *Segment) Filled(vals []domain.Value) *Segment {
	return &Segment{ID: s.ID, Rng: s.Rng, Vals: vals, sum: checkedSum(s.Rng, vals)}
}

// decodeBufs pools the buffers encoded payloads are decoded into for a
// split or a select, so a reorganization allocates only what it keeps.
var decodeBufs = sync.Pool{New: func() any { return new([]domain.Value) }}

// payload returns the whole payload for reading: the raw slice, a Plain
// vector's backing slice, or — with buf non-nil — the payload decoded
// into a pooled buffer, which the caller hands back with decodeBufs.Put once
// done. Callers must not mutate vals.
func (s *Segment) payload() (vals []domain.Value, buf *[]domain.Value) {
	if vals, ok := s.BorrowValues(); ok {
		return vals, nil
	}
	buf = decodeBufs.Get().(*[]domain.Value)
	*buf = s.Enc.AppendTo((*buf)[:0])
	return *buf, buf
}

// BorrowValues returns the segment's whole payload without copying when
// the storage form already holds a materialized plain slice — the raw
// Vals, or a Plain-encoded vector's backing slice. It reports false when
// the payload must be decoded (RLE/Dict/FOR), in which case callers use
// AppendValues. The returned slice aliases published, immutable segment
// storage: callers must append it to a rope as a *borrowed* chunk and
// never write through it.
func (s *Segment) BorrowValues() ([]domain.Value, bool) {
	if s.Virtual {
		panic("segment: BorrowValues on a virtual segment")
	}
	if s.Enc == nil {
		return s.Vals, true
	}
	if p, ok := s.Enc.(*compress.PlainVector); ok {
		return p.Raw(), true
	}
	return nil, false
}

// FilledEncoded is Filled's encoded counterpart: a fresh materialized
// segment with s's identity (ID and range) holding an already-encoded
// payload — the landing point of the compression-aware bulk-load, which
// splices a replica's encoded form straight from its covering segment
// instead of decoding and re-encoding. The range invariant is checked
// from the encoded synopsis, so the guard stays O(1); the summary's sum
// is taken from the encoding (run headers, for the RLE splices).
func (s *Segment) FilledEncoded(enc compress.Vector) *Segment {
	min, max, ok := enc.MinMax()
	if ok && (!s.Rng.Contains(min) || !s.Rng.Contains(max)) {
		panic(fmt.Sprintf("segment: encoded values [%d, %d] outside range %v", min, max, s.Rng))
	}
	_, sum := enc.SumRange(min, max)
	return &Segment{ID: s.ID, Rng: s.Rng, Enc: enc, sum: sum}
}

// AppendValues appends the whole payload, in order, to dst.
func (s *Segment) AppendValues(dst []domain.Value) []domain.Value {
	if s.Virtual {
		panic("segment: AppendValues on a virtual segment")
	}
	if s.Enc != nil {
		return s.Enc.AppendTo(dst)
	}
	return append(dst, s.Vals...)
}

// AppendSelect appends the values matching q, in order, to dst; when
// none does, a non-nil dst comes back untouched. A nil dst is allocated
// once, presized from EstimatePiece plus an eighth for its error, capped
// at presizeMax rows. Encoded payloads use their compressed-form fast
// path (run skipping, dictionary or frame pruning) instead of
// decompressing, raw ones the Plain kernel.
func (s *Segment) AppendSelect(q domain.Range, dst []domain.Value) []domain.Value {
	if s.Virtual {
		panic("segment: AppendSelect on a virtual segment")
	}
	if dst == nil {
		est := s.EstimatePiece(q)
		dst = make([]domain.Value, 0, min(compress.SelectCap(est+est/8), s.Count(), presizeMax))
	}
	if s.Enc != nil {
		return s.Enc.SelectRange(q.Lo, q.Hi, dst)
	}
	return compress.SelectPlain(s.Vals, q.Lo, q.Hi, dst)
}

// SelectCount counts the values matching q without materializing them —
// the counting path of Column.Count. RLE counts from run headers alone.
func (s *Segment) SelectCount(q domain.Range) int64 {
	if s.Virtual {
		panic("segment: SelectCount on a virtual segment")
	}
	if s.Enc != nil {
		return s.Enc.CountRange(q.Lo, q.Hi)
	}
	return compress.CountPlain(s.Vals, q.Lo, q.Hi)
}

// SelectSum returns the count and the sum of the values matching q
// without materializing them — the summing path of Column.Sum. A query
// covering the whole segment is answered from the summary; otherwise an
// encoded payload sums on its compressed form (compress.Vector.SumRange),
// a raw one with the Plain kernel.
func (s *Segment) SelectSum(q domain.Range) (n, sum int64) {
	if s.Virtual {
		panic("segment: SelectSum on a virtual segment")
	}
	if q.ContainsRange(s.Rng) {
		return s.Count(), s.sum
	}
	if s.Enc != nil {
		return s.Enc.SumRange(q.Lo, q.Hi)
	}
	return compress.SumPlain(s.Vals, q.Lo, q.Hi)
}

// EstimatePiece estimates how many of s's elements fall into piece,
// assuming values spread uniformly over s's range. The segmentation models
// consult this *before* any scan happens (§3.2: "using estimates of the
// segment sizes").
func (s *Segment) EstimatePiece(piece domain.Range) int64 {
	return s.Rng.Prorate(s.Count(), piece)
}

// Split cuts the materialized segment into len(cuts)+1 fresh raw
// segments: piece i holds the values in (cuts[i-1], cuts[i]], in payload
// order, over exactly that range. It is the one scan both adaptive
// strategies piggy-back materialization on (§4 Alg. 1, §5 Alg. 2
// scanMat): a query's bounds cut a segment at most three ways
// (domain.Split's Cuts), APM rule 3's point split cuts it once. Cuts —
// at most two — must ascend inside the splittable interior
// [Rng.Lo, Rng.Hi-1]; anything else panics.
//
// The payload is read twice — decoded once, into a pooled buffer, when
// encoded. The first pass counts and sums every piece and takes the
// payload's extremes, branch-free and in registers; the second scatters
// the values into pieces allocated at their exact size, which the caller
// owns. A value's piece follows from the cuts, so the pieces respect
// their ranges exactly when the extremes respect the parent's: the range
// guard is that O(1) check, as in FilledEncoded. Piece IDs ascend in
// piece order.
func (s *Segment) Split(cuts ...domain.Value) []*Segment {
	if s.Virtual {
		panic("segment: Split of a virtual segment")
	}
	if len(cuts) > 2 {
		panic(fmt.Sprintf("segment: Split at %d cuts, at most 2", len(cuts)))
	}
	// A missing cut sits at MaxInt64, above every value: its piece stays
	// empty and is not returned.
	c := [2]domain.Value{math.MaxInt64, math.MaxInt64}
	lo := s.Rng.Lo
	for i, cut := range cuts {
		if cut < lo || cut >= s.Rng.Hi {
			panic(fmt.Sprintf("segment: cut %d outside splittable interior of %v, or not ascending", cut, s.Rng))
		}
		c[i], lo = cut, cut+1
	}

	vals, buf := s.payload()
	var above0, above1 int    // values above c[0], above c[1]
	var sum, sum0, sum1 int64 // Σ of all values, of those above c[0], above c[1]
	vmin, vmax := domain.Value(math.MaxInt64), domain.Value(math.MinInt64)
	for _, v := range vals {
		var m0, m1 int64 // all ones when v lies above the cut
		if v > c[0] {
			m0 = -1
		}
		if v > c[1] {
			m1 = -1
		}
		above0 -= int(m0)
		above1 -= int(m1)
		sum += v
		sum0 += v & m0
		sum1 += v & m1
		vmin, vmax = min(vmin, v), max(vmax, v)
	}
	guardRange(s.Rng, vals, vmin, vmax)
	counts := [3]int{len(vals) - above0, above0 - above1, above1}
	sums := [3]int64{sum - sum0, sum0 - sum1, sum1}
	var parts [3][]domain.Value
	for i, n := range counts {
		parts[i] = make([]domain.Value, n)
	}
	var pos [3]int
	for _, v := range vals {
		i := 0
		if v > c[0] {
			i = 1
		}
		if v > c[1] {
			i = 2
		}
		parts[i][pos[i]] = v
		pos[i]++
	}
	if buf != nil {
		decodeBufs.Put(buf)
	}
	out := make([]*Segment, len(cuts)+1)
	lo = s.Rng.Lo
	for i := range out {
		hi := s.Rng.Hi
		if i < len(cuts) {
			hi = cuts[i]
		}
		out[i] = &Segment{ID: idCounter.Add(1), Rng: domain.Range{Lo: lo, Hi: hi}, Vals: parts[i], sum: sums[i]}
		lo = hi + 1
	}
	return out
}

// Select scans the materialized segment and returns the values matching
// query range q in a slice of exactly their number, so a replica filled
// from it keeps no covering-segment-sized backing array.
func (s *Segment) Select(q domain.Range) []domain.Value {
	buf := decodeBufs.Get().(*[]domain.Value)
	*buf = s.AppendSelect(q, (*buf)[:0])
	out := make([]domain.Value, len(*buf))
	copy(out, *buf)
	decodeBufs.Put(buf)
	return out
}

// MeanValue approximates the mean of the segment's value range. APM rule 3
// uses "an approximation of the mean value in the segment" as a fallback
// split point; without scanning we approximate it by the range midpoint.
func (s *Segment) MeanValue() domain.Value {
	return s.Rng.Lo + (s.Rng.Hi-s.Rng.Lo)/2
}

func (s *Segment) String() string {
	kind := "mat"
	if s.Virtual {
		kind = "vir"
	}
	if s.Enc != nil {
		return fmt.Sprintf("%s%v#%d/%v", kind, s.Rng, s.Count(), s.Enc.Encoding())
	}
	return fmt.Sprintf("%s%v#%d", kind, s.Rng, s.Count())
}
