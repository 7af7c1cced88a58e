package server

import (
	"encoding/json"

	"selforg"
)

// Rows is the wire form of a single-column result set. On the serving
// side it wraps the facade's chunked result (selforg.Rows), and the wire
// encoder (wire.go) writes the digits straight out of the rope's chunks,
// a buffer's worth of rows per call of the decimal kernel (decimal.go)
// — the flat []int64 is never materialized, so a large SELECT costs one
// pooled buffer, flushed as it fills, instead of a row slice. On the
// client side (and in tests) it unmarshals back into a flat slice; the
// JSON array is the one the []int64 encoding would write.
type Rows struct {
	chunked *selforg.Rows // serving-side rope source; nil when flat
	n       int           // rows to emit from chunked (MaxRows truncation)
	flat    []int64       // decoded or explicitly-built form
}

// NewRows wraps an already-flat row slice.
func NewRows(flat []int64) *Rows { return &Rows{flat: flat} }

// Len returns the number of rows the result carries (after truncation).
func (r *Rows) Len() int {
	if r == nil {
		return 0
	}
	if r.chunked != nil {
		return r.n
	}
	return len(r.flat)
}

// Values returns the rows as a flat slice. Callers must not mutate it:
// on the serving side it may alias column storage.
func (r *Rows) Values() []int64 {
	if r == nil {
		return nil
	}
	if r.chunked == nil {
		return r.flat
	}
	return r.chunked.Flatten()[:r.n]
}

// encode appends the rows as a JSON array, walking the chunked source
// in place and stopping at the MaxRows cut — no intermediate flat
// slice. It reports false once a streamed answer has failed.
func (r *Rows) encode(e *wire) bool {
	e.buf = append(e.buf, '[')
	n, ok := 0, true
	if r.chunked == nil {
		ok = e.ints(r.flat, &n)
	} else {
		r.chunked.Chunks(func(vals []int64) bool {
			ok = e.ints(vals[:min(len(vals), r.n-n)], &n)
			return ok && n < r.n
		})
	}
	e.buf = append(e.buf, ']')
	return ok
}

// UnmarshalJSON decodes a JSON row array into the flat form.
func (r *Rows) UnmarshalJSON(b []byte) error {
	r.chunked, r.n = nil, 0
	return json.Unmarshal(b, &r.flat)
}
