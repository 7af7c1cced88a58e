package compress

// RLEVector is run-length encoding: maximal runs of equal adjacent values
// stored as a value plus the run's cumulative end offset. Range
// selection touches each run header exactly once and never expands a run
// it can skip, so scans over sorted or low-run-count data cost O(runs),
// not O(rows).
type RLEVector struct {
	vals     []int64 // run values, in sequence order
	ends     []int32 // cumulative exclusive end row of each run
	min, max int64
	elemSize int64
}

// rleRunBytes is the accounted header cost per run on top of the value:
// a 4-byte row count. rleHeaderBytes is the per-vector header (run count,
// synopsis).
const (
	rleRunBytes    = 4
	rleHeaderBytes = 8
)

// NewRLE encodes vals; the input is not retained.
func NewRLE(vals []int64, elemSize int64) *RLEVector {
	if elemSize < 1 {
		elemSize = 8
	}
	r := &RLEVector{elemSize: elemSize}
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			r.vals = append(r.vals, v)
			r.ends = append(r.ends, int32(i+1))
		} else {
			r.ends[len(r.ends)-1] = int32(i + 1)
		}
		if i == 0 || v < r.min {
			r.min = v
		}
		if i == 0 || v > r.max {
			r.max = v
		}
	}
	return r
}

// run returns the [start, end) rows of run k.
func (r *RLEVector) run(k int) (int, int) {
	start := 0
	if k > 0 {
		start = int(r.ends[k-1])
	}
	return start, int(r.ends[k])
}

// appendRepeat appends count copies of v to dst at memmove speed
// (doubling copies), the run-expansion kernel of AppendTo/SelectRange.
func appendRepeat(dst []int64, v int64, count int) []int64 {
	if count <= 0 {
		return dst
	}
	need := len(dst) + count
	if cap(dst) < need {
		grown := make([]int64, len(dst), max(need, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	seg := dst[len(dst):need]
	dst = dst[:need]
	seg[0] = v
	for filled := 1; filled < count; filled *= 2 {
		copy(seg[filled:], seg[:filled])
	}
	return dst
}

// Len implements Vector.
func (r *RLEVector) Len() int {
	if len(r.ends) == 0 {
		return 0
	}
	return int(r.ends[len(r.ends)-1])
}

// Encoding implements Vector.
func (r *RLEVector) Encoding() Encoding { return RLE }

// StoredBytes implements Vector: a vector header plus one value and one
// row count per run.
func (r *RLEVector) StoredBytes() int64 {
	if len(r.vals) == 0 {
		return 0
	}
	return rleHeaderBytes + int64(len(r.vals))*(r.elemSize+rleRunBytes)
}

// AppendTo implements Vector.
func (r *RLEVector) AppendTo(dst []int64) []int64 {
	for k, v := range r.vals {
		start, end := r.run(k)
		dst = appendRepeat(dst, v, end-start)
	}
	return dst
}

// SelectRange implements Vector: whole runs are emitted or skipped on the
// strength of the run header alone.
func (r *RLEVector) SelectRange(lo, hi int64, dst []int64) []int64 {
	if hi < r.min || lo > r.max {
		return dst
	}
	for k, v := range r.vals {
		if v < lo || v > hi {
			continue
		}
		start, end := r.run(k)
		dst = appendRepeat(dst, v, end-start)
	}
	return dst
}

// CountRange implements Vector without touching any row: qualifying run
// lengths are summed from the headers.
func (r *RLEVector) CountRange(lo, hi int64) int64 {
	if lo > hi || hi < r.min || lo > r.max {
		return 0
	}
	span := uint64(hi) - uint64(lo)
	var n int64
	prev := int32(0)
	for k, v := range r.vals {
		// The length is computed outside the test, which keeps the loop
		// branch-free (a conditional add, not a jump).
		end := r.ends[k]
		runLen := int64(end - prev)
		if uint64(v)-uint64(lo) <= span {
			n += runLen
		}
		prev = end
	}
	return n
}

// SumRange implements Vector from the run headers alone: each
// qualifying run adds its length to the count and value × length to the
// sum, tested with one unsigned compare per run.
func (r *RLEVector) SumRange(lo, hi int64) (int64, int64) {
	if lo > hi || hi < r.min || lo > r.max {
		return 0, 0
	}
	span := uint64(hi) - uint64(lo)
	var n, sum int64
	prev := int32(0)
	for k, v := range r.vals {
		end := r.ends[k]
		runLen := int64(end - prev)
		runSum := v * runLen
		if uint64(v)-uint64(lo) <= span {
			n += runLen
			sum += runSum
		}
		prev = end
	}
	return n, sum
}

// MinMax implements Vector.
func (r *RLEVector) MinMax() (int64, int64, bool) {
	if len(r.vals) == 0 {
		return 0, 0, false
	}
	return r.min, r.max, true
}
