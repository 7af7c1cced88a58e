package segment

import (
	"fmt"
	"strings"

	"selforg/internal/compress"
)

// EncodingStats is the per-encoding storage breakdown of a column: how
// many materialized segments each encoding holds and their physical
// bytes. Raw (un-encoded) payloads count as Plain — they are stored
// uncompressed either way, so the breakdown always sums to the column's
// segment count and physical footprint.
type EncodingStats struct {
	Segments [compress.NumEncodings]int
	Bytes    [compress.NumEncodings]int64
}

// Observe accounts one materialized segment (virtual segments carry no
// storage and are skipped).
func (es *EncodingStats) Observe(s *Segment, elemSize int64) {
	if s.Virtual {
		return
	}
	e := s.Encoding()
	es.Segments[e]++
	es.Bytes[e] += int64(s.StoredBytes(elemSize))
}

// Add accumulates other into es.
func (es *EncodingStats) Add(other EncodingStats) {
	for i := range es.Segments {
		es.Segments[i] += other.Segments[i]
		es.Bytes[i] += other.Bytes[i]
	}
}

// String renders the non-empty encodings compactly, e.g.
// "rle:3/96B dict:1/40B plain:2/800B".
func (es EncodingStats) String() string {
	var parts []string
	for _, e := range compress.Encodings {
		if es.Segments[e] == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%v:%d/%dB", e, es.Segments[e], es.Bytes[e]))
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, " ")
}

// EncodingStats sweeps the list and returns its per-encoding breakdown.
func (l *List) EncodingStats() EncodingStats {
	var es EncodingStats
	for _, s := range l.segs {
		es.Observe(s, l.elemSize)
	}
	return es
}
