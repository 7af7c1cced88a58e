// Package compress implements the adaptive per-segment compression
// subsystem: lightweight, order-preserving encodings for column vectors —
// run-length (RLE), dictionary with bit-packed codes, and
// frame-of-reference with bit-packed deltas — alongside an uncompressed
// Plain form.
//
// The encodings serve the engine's segments (internal/segment) only: a
// Vector is read whole (AppendTo) or through its range kernels — select,
// count, sum — which operate on the compressed form: RLE skips or emits
// whole runs without expansion, Dict prunes through a binary search of
// the sorted dictionary, and FOR prunes through its min/max frame before
// touching a single delta. The package imports nothing of the module.
//
// # The fused walks
//
// Dict codes and FOR deltas are bit-packed at a fixed width, 64 values
// to exactly `width` words, so every block is word-aligned. Every scan
// over them — CountRange, SelectRange, SumRange, AppendTo — is one walk
// of a running bit cursor over the words that tests each value in
// registers the moment it is extracted: count and sum keep their totals
// there, and select writes each value straight into the caller's dst at
// a branch-free output cursor. No value is staged in a block buffer.
//
// The rule the walks follow: compare on codes or deltas, never on
// decoded values. A predicate [lo, hi] is translated once per call —
// Dict maps it to a code interval through the sorted dictionary, FOR
// subtracts the frame — into "x - base <= span", one unsigned compare per
// value; a value is decoded (a dictionary lookup, a frame addition) only
// when it qualifies and the caller wants it. Inverted ranges are caught
// before the translation, where the unsigned span would wrap.
//
// Encoding choice is adaptive: an Advisor profiles a segment's values
// (run structure, cardinality, value span) and picks the
// minimum-estimated-size encoding. The self-organizing strategies of
// internal/core piggy-back that decision on query execution exactly the
// way the paper piggy-backs splitting: a segment is (re-)encoded when a
// query materializes or splits it, so hot, reorganized regions converge
// to their best storage format without any offline pass. The design
// follows Fehér & Lucani's adaptive column-compression family and
// Bruno's observation that lightweight compression dominates C-store
// scan cost (see PAPERS.md).
//
// Sizes are accounted against the column's accounted element width
// (ElemSize, 4 bytes in the paper's setup), so Plain matches the
// uncompressed accounting exactly and compression ratios are meaningful
// within the paper's cost model.
package compress

import "fmt"

// Encoding identifies one storage encoding.
type Encoding uint8

const (
	// Plain stores values uncompressed, in arrival order.
	Plain Encoding = iota
	// RLE stores maximal runs of equal adjacent values as (value, end).
	RLE
	// Dict stores a sorted dictionary of distinct values plus bit-packed
	// per-row codes.
	Dict
	// FOR stores a frame of reference (the minimum) plus bit-packed
	// per-row deltas.
	FOR
)

// NumEncodings is the number of concrete encodings — the dimension of
// per-encoding breakdowns (segment.EncodingStats and friends).
const NumEncodings = 4

// Encodings lists every concrete encoding, Plain first.
var Encodings = []Encoding{Plain, RLE, Dict, FOR}

func (e Encoding) String() string {
	switch e {
	case Plain:
		return "plain"
	case RLE:
		return "rle"
	case Dict:
		return "dict"
	case FOR:
		return "for"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

// Mode is the compression policy knob surfaced through selforg.Options:
// off (the zero value, the legacy uncompressed layout), adaptive
// (advisor-chosen per segment), or one forced encoding.
type Mode int

const (
	// Off disables the subsystem: segments store raw value slices.
	Off Mode = iota
	// Auto lets the Advisor pick the minimum-estimated-size encoding per
	// segment.
	Auto
	// ForcePlain wraps segments in the Plain encoding (useful to isolate
	// the cost of the vector indirection in benchmarks).
	ForcePlain
	// ForceRLE forces run-length encoding.
	ForceRLE
	// ForceDict forces dictionary encoding.
	ForceDict
	// ForceFOR forces frame-of-reference encoding.
	ForceFOR
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Auto:
		return "auto"
	case ForcePlain:
		return "plain"
	case ForceRLE:
		return "rle"
	case ForceDict:
		return "dict"
	case ForceFOR:
		return "for"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Enabled reports whether the mode stores segments through the subsystem.
func (m Mode) Enabled() bool { return m != Off }

// Forced returns the forced encoding and true for the Force* modes.
func (m Mode) Forced() (Encoding, bool) {
	switch m {
	case ForcePlain:
		return Plain, true
	case ForceRLE:
		return RLE, true
	case ForceDict:
		return Dict, true
	case ForceFOR:
		return FOR, true
	default:
		return Plain, false
	}
}

// Vector is a compressed int64 column vector: its size, a whole-vector
// decode, and the range kernels the engine answers queries with.
type Vector interface {
	// Len returns the number of values.
	Len() int
	// Encoding identifies the storage format.
	Encoding() Encoding
	// StoredBytes is the accounted physical size of the encoded form,
	// measured against the accounted element width the vector was encoded
	// with. Plain's StoredBytes equals Len()*elemSize exactly.
	StoredBytes() int64
	// AppendTo appends every value, in order, to dst and returns it.
	AppendTo(dst []int64) []int64
	// SelectRange appends the values lying in [lo, hi] (inclusive), in
	// order, to dst — the selection fast path on the compressed form.
	SelectRange(lo, hi int64, dst []int64) []int64
	// CountRange counts the values lying in [lo, hi] without materializing
	// them.
	CountRange(lo, hi int64) int64
	// SumRange returns the count and the (two's-complement wrapping) sum
	// of the values lying in [lo, hi], answered from the encoding: RLE
	// multiplies run values by clipped run lengths, FOR adds n·ref to the
	// qualifying deltas, Dict looks up only qualifying codes.
	SumRange(lo, hi int64) (n, sum int64)
	// MinMax returns the extreme values; ok is false for empty vectors.
	MinMax() (min, max int64, ok bool)
}

// Encode compresses vals with the given encoding. elemSize is the
// accounted bytes per uncompressed element (the column's ElemSize); sizes
// below 1 default to 8 (the in-memory width of an int64). The input slice
// is not retained by RLE/Dict/FOR; Plain aliases it.
func Encode(vals []int64, e Encoding, elemSize int64) Vector {
	if elemSize < 1 {
		elemSize = 8
	}
	switch e {
	case Plain:
		return NewPlain(vals, elemSize)
	case RLE:
		return NewRLE(vals, elemSize)
	case Dict:
		return NewDict(vals, elemSize)
	case FOR:
		return NewFOR(vals, elemSize)
	default:
		panic(fmt.Sprintf("compress: unknown encoding %v", e))
	}
}
