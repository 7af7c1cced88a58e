package compress

import "math/bits"

// The Advisor is the subsystem's decision maker: it profiles a segment's
// values — run structure, cardinality, value span — and estimates, per
// encoding, the accounted storage the segment would occupy, choosing the
// minimum. Profiling samples a bounded prefix plus the full-range
// extremes, so advice stays O(SampleSize) even for the prototype's
// multi-megabyte segments; a non-Plain encoding is chosen only when its
// estimate strictly beats Plain, so pathological data can never regress
// past the uncompressed baseline by more than the estimation error.

// Profile summarizes the value distribution the Advisor decides on.
type Profile struct {
	N        int   // rows profiled against (the full segment length)
	Runs     int   // estimated maximal equal-adjacent runs
	Distinct int   // estimated distinct values (sample lower bound)
	Min, Max int64 // exact extremes over the full input
	Sampled  bool  // true when Runs/Distinct come from a sample
}

// Advisor chooses encodings from sampled profiles.
type Advisor struct {
	// SampleSize bounds the rows examined for run/cardinality estimation
	// (min/max are always exact). 0 means DefaultSampleSize.
	SampleSize int
}

// DefaultSampleSize is the profiling bound used when Advisor.SampleSize
// is zero.
const DefaultSampleSize = 1024

func (a Advisor) sampleSize() int {
	if a.SampleSize > 0 {
		return a.SampleSize
	}
	return DefaultSampleSize
}

// Profile examines vals: extremes exactly, run and distinct counts over a
// prefix sample scaled to the full length.
func (a Advisor) Profile(vals []int64) Profile {
	p := Profile{N: len(vals)}
	if len(vals) == 0 {
		return p
	}
	p.Min, p.Max = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < p.Min {
			p.Min = v
		}
		if v > p.Max {
			p.Max = v
		}
	}
	sample := vals
	if s := a.sampleSize(); len(vals) > s {
		sample = vals[:s]
		p.Sampled = true
	}
	runs, distinct := sampleCounts(sample)
	p.Runs, p.Distinct = runs, distinct
	if p.Sampled {
		// Scale the sampled run *boundaries* (a constant sample must stay
		// one run).
		p.Runs = (runs-1)*len(vals)/len(sample) + 1
		// Low-cardinality data saturates the sample fast, so a sparse
		// sample (≤ half distinct) is taken at face value; a dense sample
		// means high cardinality, which must scale with the full length or
		// dictionaries look far cheaper than they are.
		if distinct > len(sample)/2 {
			p.Distinct = distinct * len(vals) / len(sample)
			if p.Distinct > len(vals) {
				p.Distinct = len(vals)
			}
		}
	}
	return p
}

// distinctSlots is the stack table sampleCounts uses for samples of up
// to DefaultSampleSize values: twice as many slots as values, so the
// table is never more than half full.
const distinctSlots = 2 * DefaultSampleSize

// sampleCounts returns the runs of equal adjacent values in sample and
// its distinct values, counted exactly as a map would count them but in
// a linear-probe hash table (Fibonacci hashing) of distinctSlots slots on
// the stack; a sample beyond DefaultSampleSize gets a table twice its
// size from the heap. A zero slot is empty, so 0 itself is counted apart.
func sampleCounts(sample []int64) (runs, distinct int) {
	var buf [distinctSlots]int64
	table := buf[:]
	if 2*len(sample) > distinctSlots {
		table = make([]int64, 1<<bits.Len(uint(2*len(sample)-1)))
	}
	shift := 65 - uint(bits.Len(uint(len(table))))
	mask, n, zero := uint64(len(table)-1), 0, 0
	for i, v := range sample {
		if i == 0 || v != sample[i-1] {
			runs++
		}
		if v == 0 {
			zero = 1
			continue
		}
		h := uint64(v) * 0x9e3779b97f4a7c15 >> shift
		for table[h] != 0 && table[h] != v {
			h = (h + 1) & mask
		}
		if table[h] == 0 {
			table[h] = v
			n++
		}
	}
	return runs, n + zero
}

// EstimateBytes returns the accounted storage vals would occupy under e,
// computed from the profile alone.
func (Advisor) EstimateBytes(p Profile, e Encoding, elemSize int64) int64 {
	if elemSize < 1 {
		elemSize = 8
	}
	if p.N == 0 {
		return 0
	}
	n := int64(p.N)
	switch e {
	case Plain:
		return n * elemSize
	case RLE:
		return rleHeaderBytes + int64(p.Runs)*(elemSize+rleRunBytes)
	case Dict:
		width := bitsFor(uint64(p.Distinct - 1))
		return dictHeaderBytes + int64(p.Distinct)*elemSize + packedBytesFor(n, width)
	case FOR:
		width := bitsFor(uint64(p.Max) - uint64(p.Min))
		return forHeaderBytes + 2*elemSize + packedBytesFor(n, width)
	default:
		return n * elemSize
	}
}

// packedBytesFor sizes a packed array of n width-bit values.
func packedBytesFor(n int64, width uint) int64 {
	return (n*int64(width) + 63) / 64 * 8
}

// Choose profiles vals and returns the encoding with the minimum
// estimated accounted size; ties and losses both resolve to Plain.
func (a Advisor) Choose(vals []int64, elemSize int64) Encoding {
	return a.choose(a.Profile(vals), elemSize)
}

// choose returns the encoding with the minimum estimated size under p.
func (a Advisor) choose(p Profile, elemSize int64) Encoding {
	best, bestBytes := Plain, a.EstimateBytes(p, Plain, elemSize)
	for _, e := range []Encoding{RLE, Dict, FOR} {
		if b := a.EstimateBytes(p, e, elemSize); b < bestBytes {
			best, bestBytes = e, b
		}
	}
	return best
}

// Codec bundles a compression mode, an advisor and the column's accounted
// element width — the object the storage layers (Segmenter, Replicator)
// consult whenever a segment is materialized or split. A nil *Codec
// means compression off.
type Codec struct {
	mode     Mode
	advisor  Advisor
	elemSize int64
}

// NewCodec builds a codec, or returns nil when mode is Off so callers can
// gate on a single nil check.
func NewCodec(mode Mode, elemSize int64) *Codec {
	if !mode.Enabled() {
		return nil
	}
	return &Codec{mode: mode, elemSize: elemSize}
}

// Enabled reports whether c encodes (nil-safe).
func (c *Codec) Enabled() bool { return c != nil && c.mode.Enabled() }

// Mode returns the codec's policy (Off for nil).
func (c *Codec) Mode() Mode {
	if c == nil {
		return Off
	}
	return c.mode
}

// ElemSize returns the accounted element width the codec encodes against.
func (c *Codec) ElemSize() int64 {
	if c == nil {
		return 0
	}
	return c.elemSize
}

// Encode compresses vals under the codec's policy. The input is aliased
// only when the chosen encoding is Plain. Under Auto the result is
// guaranteed no larger than Plain: the advisor's sampled estimate picks
// the candidate, and an actual-size check falls back to Plain when the
// estimate was too optimistic. The profile's exact extremes are FOR's
// frame, so a FOR choice reads the values once more only to pack them.
func (c *Codec) Encode(vals []int64) Vector {
	if e, forced := c.mode.Forced(); forced {
		return Encode(vals, e, c.elemSize)
	}
	p := c.advisor.Profile(vals)
	e := c.advisor.choose(p, c.elemSize)
	var v Vector
	if e == FOR {
		v = newFOR(vals, p.Min, p.Max, c.elemSize)
	} else {
		v = Encode(vals, e, c.elemSize)
	}
	if e != Plain && v.StoredBytes() > int64(len(vals))*c.elemSize {
		return NewPlain(vals, c.elemSize)
	}
	return v
}
