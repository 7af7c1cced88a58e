package core

import (
	"fmt"
	"strings"
	"testing"

	"selforg/internal/compress"
	"selforg/internal/domain"
	"selforg/internal/segment"
)

// treeSeg describes one materialized replica of a hand-built tree: its
// range, its payload, whether the payload is stored encoded, and its own
// children. The segment is built field by field, past the segment
// package's range guards, so validate is the only check that can catch a
// corruption.
type treeSeg struct {
	lo, hi  int64
	vals    []int64
	encoded bool
	kids    []treeSeg
}

// corruptNode builds the subtree of s, encoding the encoded replicas in e.
func corruptNode(s treeSeg, e compress.Encoding) *node {
	seg := &segment.Segment{Rng: domain.NewRange(s.lo, s.hi)}
	if s.encoded {
		seg.Enc = compress.Encode(append([]int64(nil), s.vals...), e, 4)
	} else {
		seg.Vals = s.vals
	}
	n := &node{seg: seg}
	for _, k := range s.kids {
		n.children = append(n.children, corruptNode(k, e))
	}
	return n
}

// TestTreeValidateRejectsOutOfRangePayloads is segment's
// TestValidateRejectsOutOfRangePayloads for the replica tree: under a
// virtual sentinel over [0, 39], each row corrupts one replica's payload,
// and validate must reject it with the error naming exactly that replica
// (its range, count and encoding) and the offending values. The encoded
// rows check the min-max containment on both bounds.
func TestTreeValidateRejectsOutOfRangePayloads(t *testing.T) {
	rows := []struct {
		name string
		kids []treeSeg
		want string // "" = valid; {enc} stands for the encoding
	}{
		{"intact", []treeSeg{
			{0, 19, []int64{0, 19, 7}, true, []treeSeg{
				{0, 9, []int64{0, 9}, false, nil},
				{10, 19, []int64{19}, true, nil},
			}},
			{20, 39, []int64{20, 39}, false, nil},
		}, ""},
		{"encoded max above hi", []treeSeg{
			{0, 9, []int64{1, 2}, false, nil},
			{10, 19, []int64{12, 12}, true, nil},
			{20, 29, []int64{21, 30, 25}, true, nil},
			{30, 39, []int64{31}, false, nil},
		}, "core: encoded values [21, 30] outside mat[20, 29]#3/{enc}"},
		{"encoded min below lo", []treeSeg{
			{0, 9, []int64{1, 2}, true, nil},
			{10, 39, []int64{15, 9, 39}, true, nil},
		}, "core: encoded values [9, 39] outside mat[10, 39]#3/{enc}"},
		{"nested encoded max above hi", []treeSeg{
			{0, 19, []int64{3, 17}, false, []treeSeg{
				{0, 9, []int64{3}, true, nil},
				{10, 19, []int64{17, 20}, true, nil},
			}},
			{20, 39, []int64{20}, true, nil},
		}, "core: encoded values [17, 20] outside mat[10, 19]#2/{enc}"},
		{"raw value above hi", []treeSeg{
			{0, 29, []int64{1, 2}, true, nil},
			{30, 39, []int64{33, 40, 31}, false, nil},
		}, "core: value 40 outside mat[30, 39]#3"},
		{"nested raw value below lo", []treeSeg{
			{0, 19, []int64{5}, true, []treeSeg{
				{0, 9, []int64{5}, false, nil},
				{10, 19, []int64{10, 9}, false, nil},
			}},
			{20, 39, []int64{20}, false, nil},
		}, "core: value 9 outside mat[10, 19]#2"},
	}
	for _, e := range compress.Encodings {
		for _, r := range rows {
			root := &node{seg: segment.NewVirtual(domain.NewRange(0, 39), 0)}
			for _, k := range r.kids {
				root.children = append(root.children, corruptNode(k, e))
			}
			want := strings.ReplaceAll(r.want, "{enc}", e.String())
			err := root.validate(false)
			if got := fmt.Sprint(err); r.want == "" && err != nil || r.want != "" && got != want {
				t.Errorf("%s/%v: validate() = %v, want %q", r.name, e, err, want)
			}
		}
	}
}
