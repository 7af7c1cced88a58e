package compress

// Encoded-form splice and extend: the compression-aware bulk-load
// kernels. When a replica is materialized out of an encoded covering
// segment (or an encoded replica absorbs a merge-back's inserts), the
// round trip decode → append/filter → re-encode can be skipped for
// encodings whose form survives the operation — the run list of RLE,
// the raw slice of Plain. Both functions report false when the encoding
// does not support the shortcut, and callers keep the decoded path as
// the fallback; the results are value- and size-identical to the
// decoded path re-encoded under the same encoding (equivalence-tested
// in splice_test.go).

// SpliceRange returns the values of v falling in [lo, hi] as a fresh
// vector in v's own encoding, built from the encoded form:
//
//   - RLE splices qualifying run headers, merging runs that become
//     adjacent when an out-of-range run between them is dropped, so the
//     result is exactly NewRLE(decoded-then-filtered input);
//   - Plain filters the raw slice into an exact-size one (counted
//     first, so no parent-sized backing array outlives the splice);
//   - Dict and FOR report false — filtering invalidates their dictionary
//     and frame, so splicing would be a re-encode in disguise.
//
// The input is never aliased: mutating v later cannot corrupt the
// result.
func SpliceRange(v Vector, lo, hi int64) (Vector, bool) {
	switch s := v.(type) {
	case *RLEVector:
		out := &RLEVector{elemSize: s.elemSize}
		var n int32
		first := true
		for k, val := range s.vals {
			if val < lo || val > hi {
				continue
			}
			start, end := s.run(k)
			n += int32(end - start)
			if !first && out.vals[len(out.vals)-1] == val {
				// Runs separated only by dropped values merge, exactly as a
				// fresh encode of the filtered sequence would.
				out.ends[len(out.ends)-1] = n
				continue
			}
			out.vals = append(out.vals, val)
			out.ends = append(out.ends, n)
			if first || val < out.min {
				out.min = val
			}
			if first || val > out.max {
				out.max = val
			}
			first = false
		}
		return out, true
	case *PlainVector:
		out := make([]int64, 0, s.CountRange(lo, hi))
		for _, v := range s.vals {
			if v >= lo && v <= hi {
				out = append(out, v)
			}
		}
		return NewPlain(out, s.elemSize), true
	default:
		return nil, false
	}
}

// ExtendEncoded returns a fresh vector in v's encoding holding v's
// values followed by more — the merge-back/bulk-load append done on the
// encoded form. Supported for RLE (runs are copied and extended; a
// trailing run absorbs equal leading appends, so the result is exactly
// NewRLE(decoded input ++ more)). Plain, Dict and FOR report false:
// Plain's extend is the decoded path itself, and Dict/FOR would need a
// dictionary or frame rebuild.
func ExtendEncoded(v Vector, more []int64) (Vector, bool) {
	s, ok := v.(*RLEVector)
	if !ok {
		return nil, false
	}
	out := &RLEVector{
		vals:     append(make([]int64, 0, len(s.vals)+len(more)), s.vals...),
		ends:     append(make([]int32, 0, len(s.ends)+len(more)), s.ends...),
		min:      s.min,
		max:      s.max,
		elemSize: s.elemSize,
	}
	n := int32(s.Len())
	for _, val := range more {
		n++
		if len(out.vals) > 0 && out.vals[len(out.vals)-1] == val {
			out.ends[len(out.ends)-1] = n
		} else {
			out.vals = append(out.vals, val)
			out.ends = append(out.ends, n)
		}
		if out.Len() == 1 || val < out.min {
			out.min = val
		}
		if out.Len() == 1 || val > out.max {
			out.max = val
		}
	}
	return out, true
}

// Allows reports whether the codec's policy permits storing a segment in
// encoding e — the guard the encoded-splice paths check before keeping a
// parent's encoding: Auto accepts any encoding (a sub-range or extension
// of a well-encoded segment inherits its parent's choice; the advisor
// re-profiles at the segment's next full rewrite), forced modes accept
// exactly their encoding, Off accepts none.
func (c *Codec) Allows(e Encoding) bool {
	if !c.Enabled() {
		return false
	}
	if f, forced := c.Mode().Forced(); forced {
		return e == f
	}
	return true
}
