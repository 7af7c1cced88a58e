package main

import (
	"fmt"
	"sort"

	"selforg/internal/domain"
)

// oracle is the reference model of a column's base data: a sorted copy of
// the regenerated values with prefix sums. It answers count and sum of
// any range in O(log n) and is simple enough to be obviously right.
type oracle struct {
	sorted []int64
	prefix []int64 // prefix[i] = sum(sorted[:i])
}

func newOracle(vals []int64) *oracle {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p := make([]int64, len(s)+1)
	for i, v := range s {
		p[i+1] = p[i] + v
	}
	return &oracle{sorted: s, prefix: p}
}

// countSum returns the number and the sum of base values in [lo, hi].
func (o *oracle) countSum(lo, hi int64) (int64, int64) {
	if lo > hi {
		return 0, 0
	}
	i := sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] >= lo })
	j := sort.Search(len(o.sorted), func(k int) bool { return o.sorted[k] > hi })
	return int64(j - i), o.prefix[j] - o.prefix[i]
}

// liveSet is the multiset of values one mixed_rw client has inserted and
// not yet taken away. vals serves uniform random picks; the bucket index
// serves the range lookups of the read checks.
type liveSet struct {
	vals    []int64
	sum     int64
	lo      int64
	shift   uint
	buckets map[int64][]int64
}

func newLiveSet(dom domain.Range) *liveSet {
	// ~4096 buckets over the domain: a narrow SELECT touches one or two.
	shift := uint(0)
	for dom.Width()>>shift > 4096 {
		shift++
	}
	return &liveSet{lo: dom.Lo, shift: shift, buckets: make(map[int64][]int64)}
}

func (l *liveSet) len() int             { return len(l.vals) }
func (l *liveSet) at(i int) int64       { return l.vals[i] }
func (l *liveSet) bucket(v int64) int64 { return (v - l.lo) >> l.shift }

func (l *liveSet) add(v int64) {
	l.vals = append(l.vals, v)
	l.sum += v
	b := l.bucket(v)
	l.buckets[b] = append(l.buckets[b], v)
}

func (l *liveSet) removeAt(i int) int64 {
	v := l.vals[i]
	last := len(l.vals) - 1
	l.vals[i] = l.vals[last]
	l.vals = l.vals[:last]
	l.sum -= v
	b := l.bucket(v)
	bk := l.buckets[b]
	for k, x := range bk {
		if x == v {
			bk[k] = bk[len(bk)-1]
			bk = bk[:len(bk)-1]
			break
		}
	}
	if len(bk) == 0 {
		delete(l.buckets, b)
	} else {
		l.buckets[b] = bk
	}
	return v
}

// countSum returns the number and the sum of live values in [lo, hi].
func (l *liveSet) countSum(lo, hi int64) (n, sum int64) {
	for b := l.bucket(lo); b <= l.bucket(hi); b++ {
		for _, v := range l.buckets[b] {
			if v >= lo && v <= hi {
				n++
				sum += v
			}
		}
	}
	return n, sum
}

// checker verifies one reply against the model. It returns "" when the
// reply is right and a description of the first mismatch otherwise.
type checker interface {
	check(s stmt, r *reply) string
}

// readChecker checks a read-only workload: every count, sum and row
// count is exact.
type readChecker struct {
	base    *oracle
	maxRows int
}

func (c *readChecker) check(s stmt, r *reply) string {
	n, sum := c.base.countSum(s.a, s.b)
	return checkRead(s, r, n, sum, c.maxRows)
}

// checkRead compares a read reply with the exact count and sum of its
// range. A truncated SELECT cannot be summed (row order is the layout's),
// so its rows are only checked for number and range.
func checkRead(s stmt, r *reply, n, sum int64, maxRows int) string {
	if r.count != n {
		return fmt.Sprintf("%s: count %d, model %d", s.sql(), r.count, n)
	}
	switch s.class {
	case clsCount:
		if r.nrows != 0 {
			return fmt.Sprintf("%s: %d rows on a count", s.sql(), r.nrows)
		}
	case clsSum:
		if r.sum != sum {
			return fmt.Sprintf("%s: sum %d, model %d", s.sql(), r.sum, sum)
		}
	case clsSelect:
		want := n
		if want > int64(maxRows) {
			want = int64(maxRows)
		}
		if int64(r.nrows) != want || r.truncated != (n > int64(maxRows)) {
			return fmt.Sprintf("%s: %d rows truncated=%v, model %d of %d", s.sql(), r.nrows, r.truncated, want, n)
		}
		if r.nrows > 0 && (r.rowMin < s.a || r.rowMax > s.b) {
			return fmt.Sprintf("%s: rows span [%d, %d]", s.sql(), r.rowMin, r.rowMax)
		}
		if !r.truncated && r.rowSum[0]+r.rowSum[1] != sum {
			return fmt.Sprintf("%s: row sum %d, model %d", s.sql(), r.rowSum[0]+r.rowSum[1], sum)
		}
	}
	return ""
}

// rwChecker checks one mixed_rw client. Values of the client's own parity
// are changed by nobody else, so everything about them is exact; rows of
// the other parity can only have grown over the base, because the other
// client deletes nothing it did not insert.
type rwChecker struct {
	base   [2]*oracle // base values by parity
	parity int64
	live   *liveSet // the generator's own multiset, already updated for s
}

func (c *rwChecker) check(s stmt, r *reply) string {
	switch s.class {
	case clsInsert, clsUpdate, clsDelete:
		if r.count != 1 {
			return fmt.Sprintf("%s: affected %d rows, model 1", s.sql(), r.count)
		}
	case clsCount:
		bn, _ := c.base[c.parity].countSum(s.a, s.b)
		ln, _ := c.live.countSum(s.a, s.b)
		if r.count != bn+ln {
			return fmt.Sprintf("%s: count %d, model %d (read-your-writes)", s.sql(), r.count, bn+ln)
		}
	case clsSelect:
		p, q := c.parity, 1-c.parity
		bn, bs := c.base[p].countSum(s.a, s.b)
		ln, ls := c.live.countSum(s.a, s.b)
		if r.rowCnt[p] != bn+ln || r.rowSum[p] != bs+ls {
			return fmt.Sprintf("%s: own-parity rows %d sum %d, model %d sum %d",
				s.sql(), r.rowCnt[p], r.rowSum[p], bn+ln, bs+ls)
		}
		on, _ := c.base[q].countSum(s.a, s.b)
		if r.rowCnt[q] < on {
			return fmt.Sprintf("%s: other-parity rows %d below base %d", s.sql(), r.rowCnt[q], on)
		}
		if r.truncated || r.count != int64(r.nrows) {
			return fmt.Sprintf("%s: count %d but %d rows", s.sql(), r.count, r.nrows)
		}
		if r.nrows > 0 && (r.rowMin < s.a || r.rowMax > s.b) {
			return fmt.Sprintf("%s: rows span [%d, %d]", s.sql(), r.rowMin, r.rowMax)
		}
	}
	return ""
}

// splitParity separates values into even and odd.
func splitParity(vals []int64) [2][]int64 {
	var out [2][]int64
	for _, v := range vals {
		out[v&1] = append(out[v&1], v)
	}
	return out
}
