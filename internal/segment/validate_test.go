package segment

import (
	"fmt"
	"testing"

	"selforg/internal/compress"
	"selforg/internal/domain"
)

// corruptSeg describes one segment of a hand-built list: its range, its
// payload, and whether the payload is stored encoded. The segment is
// built field by field, past NewMaterialized's and FilledEncoded's range
// guards, so Validate is the only check that can catch a corruption.
type corruptSeg struct {
	lo, hi  int64
	vals    []int64
	encoded bool
}

// corruptList builds a list from segs, encoding the encoded ones in e.
func corruptList(segs []corruptSeg, e compress.Encoding) *List {
	l := &List{elemSize: 4}
	for _, s := range segs {
		seg := &Segment{Rng: domain.NewRange(s.lo, s.hi)}
		if s.encoded {
			seg.Enc = compress.Encode(append([]int64(nil), s.vals...), e, 4)
		} else {
			seg.Vals = s.vals
		}
		l.segs = append(l.segs, seg)
	}
	return l
}

// TestValidateRejectsOutOfRangePayloads walks hand-corrupted lists, each
// with one payload value outside its segment's range, under every
// encoding: Validate must reject each with the error naming the corrupt
// segment's index, the offending values and its range — and accept the
// intact control row. The encoded rows check the min-max containment on
// both bounds: dropping either half of it lets its row through.
func TestValidateRejectsOutOfRangePayloads(t *testing.T) {
	rows := []struct {
		name string
		segs []corruptSeg
		want string // "" = valid
	}{
		{"intact", []corruptSeg{
			{0, 9, []int64{0, 9, 5}, false},
			{10, 19, []int64{10, 19, 19}, true},
			{20, 29, []int64{25, 20, 29}, true},
		}, ""},
		{"encoded max above hi", []corruptSeg{
			{0, 9, []int64{1, 2}, false},
			{10, 19, []int64{12, 12}, true},
			{20, 29, []int64{21, 30, 25}, true},
			{30, 39, []int64{31}, false},
		}, "segment 2: encoded values [21, 30] outside [20, 29]"},
		{"encoded min below lo", []corruptSeg{
			{0, 9, []int64{1, 2}, true},
			{10, 19, []int64{15, 9, 19}, true},
			{20, 29, []int64{21}, false},
		}, "segment 1: encoded values [9, 19] outside [10, 19]"},
		{"raw value above hi", []corruptSeg{
			{0, 9, []int64{1, 2}, true},
			{10, 19, []int64{11}, false},
			{20, 29, []int64{20, 29}, false},
			{30, 39, []int64{33, 40, 31}, false},
		}, "segment 3: value 40 outside [30, 39]"},
		{"raw value below lo", []corruptSeg{
			{0, 9, []int64{1}, false},
			{10, 19, []int64{10, 9}, false},
		}, "segment 1: value 9 outside [10, 19]"},
	}
	for _, e := range compress.Encodings {
		for _, r := range rows {
			err := corruptList(r.segs, e).Validate()
			if got := fmt.Sprint(err); r.want == "" && err != nil || r.want != "" && got != r.want {
				t.Errorf("%s/%v: Validate() = %v, want %q", r.name, e, err, r.want)
			}
		}
	}
}
