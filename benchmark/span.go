package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// files. Spans of one statement share Request; Parent is the span that
// was open around this one (0 = none). Counts carries what was counted
// at the same boundary: rows, bytes, Stats fields.
type span struct {
	ID      int64            `json:"id"`
	Parent  int64            `json:"parent"`
	Request int64            `json:"request"`
	Name    string           `json:"name"`
	Start   int64            `json:"start_ns"`
	End     int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run and the "off" half of
// the overhead measurement run the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, request int64) int64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// end closes span id and attaches its counts.
func (r *recorder) end(id int64, counts map[string]int64) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.spans[id-1].Counts = counts
	r.mu.Unlock()
}

// since returns a copy of the spans recorded after the first mark.
func (r *recorder) since(mark int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[mark:]...)
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are
// counted once, a child reaching outside its parent is clipped to it, and
// a span whose parent is not in the set is a root: it takes nothing from
// any other span.
func selfTimes(spans []span) map[int64]int64 {
	type iv struct{ lo, hi int64 }
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	kids := make(map[int64][]iv)
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok || s.Parent == s.ID {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], iv{lo, hi})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, end := int64(0), int64(math.MinInt64)
		for _, v := range ivs {
			if v.lo > end {
				covered += v.hi - v.lo
				end = v.hi
			} else if v.hi > end {
				covered += v.hi - end
				end = v.hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// beyondP is how many samples must lie beyond a reported percentile.
const beyondP = 10

// rankOf is the index of the q-quantile of n sorted samples by nearest
// rank.
func rankOf(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return rank
}

// nearestRank returns the q-quantile of sorted, which must not be empty.
func nearestRank(sorted []float64, q float64) float64 { return sorted[rankOf(len(sorted), q)] }

// percentile returns the q-quantile of sorted by nearest rank. It fails
// when fewer than beyondP samples lie beyond that rank: a percentile the
// sample does not support is a sizing error of the run, never silently a
// lower percentile.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	rank := rankOf(n, q)
	if beyond := n - 1 - rank; beyond < beyondP {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, beyondP)
	}
	return sorted[rank], nil
}

// median returns the middle of vals (mean of the two middles when even),
// 0 for none. It sorts a copy.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// firstQuartile returns the first quartile of vals by nearest rank, 0 for
// none. It sorts a copy.
func firstQuartile(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return nearestRank(s, 0.25)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t / float64(len(vals))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) gives them (the exclusive method),
// which is what the driver uses for the spread of a metric.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
