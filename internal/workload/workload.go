// Package workload generates the range-selection query streams used by the
// paper's evaluation (§6): uniform and Zipf-skewed streams over the
// attribute domain for the simulation study, and the random / skewed /
// changing SkyServer-style workloads for the prototype experiments.
//
// Every generator is deterministic given its seed, so experiments are
// exactly reproducible. Drive (driver.go) turns such streams into
// multi-client load on one shared column — the one client driver under
// both harnesses.
package workload

import (
	"fmt"
	"math/rand"

	"selforg/internal/domain"
)

// Query is one range-selection predicate `v between Lo and Hi`.
type Query struct {
	Lo, Hi domain.Value
}

// Range converts the query into a domain.Range.
func (q Query) Range() domain.Range { return domain.Range{Lo: q.Lo, Hi: q.Hi} }

func (q Query) String() string { return fmt.Sprintf("[%d, %d]", q.Lo, q.Hi) }

// Generator produces an endless stream of queries.
type Generator interface {
	// Next returns the next query in the stream.
	Next() Query
}

// Take materializes the next n queries from g.
func Take(g Generator, n int) []Query {
	out := make([]Query, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// clampQuery builds a width-wide query whose low bound is lo, clipped to
// the domain dom.
func clampQuery(dom domain.Range, lo domain.Value, width int64) Query {
	if width < 1 {
		width = 1
	}
	if lo < dom.Lo {
		lo = dom.Lo
	}
	hi := lo + width - 1
	if hi > dom.Hi {
		hi = dom.Hi
		lo = hi - width + 1
		if lo < dom.Lo {
			lo = dom.Lo
		}
	}
	return Query{Lo: lo, Hi: hi}
}

// Uniform draws query positions uniformly over the domain, with a fixed
// range width chosen to hit a target selectivity. §6.1 uses this as the
// "uniform distribution of the queries over the attribute domain".
type Uniform struct {
	dom   domain.Range
	width int64
	rng   *rand.Rand
}

// NewUniform creates a uniform generator over dom producing queries of the
// given width (in domain values).
func NewUniform(dom domain.Range, width int64, seed int64) *Uniform {
	if width < 1 || width > dom.Width() {
		panic(fmt.Sprintf("workload: width %d outside domain %v", width, dom))
	}
	return &Uniform{dom: dom, width: width, rng: rand.New(rand.NewSource(seed))}
}

// Next returns a uniformly placed query.
func (u *Uniform) Next() Query {
	span := u.dom.Width() - u.width + 1
	lo := u.dom.Lo + u.rng.Int63n(span)
	return clampQuery(u.dom, lo, u.width)
}

// Zipf draws query positions from a Zipf distribution over domain buckets,
// the "skewed (Zipf) distribution" of §6.1. Lower bucket indices (the low
// end of the domain) are hit most often; the tail is hit rarely, which
// reproduces the paper's observation that untouched areas are still being
// reorganized after thousands of queries (Fig. 6).
type Zipf struct {
	dom     domain.Range
	width   int64
	buckets int64
	z       *rand.Zipf
	rng     *rand.Rand
}

// NewZipf creates a Zipf generator: the domain is divided into buckets
// bins; bucket indices are Zipf(s, v) distributed. The paper does not give
// the Zipf parameters; see DESIGN.md for our choice.
func NewZipf(dom domain.Range, width int64, buckets int64, s, v float64, seed int64) *Zipf {
	if width < 1 || width > dom.Width() {
		panic(fmt.Sprintf("workload: width %d outside domain %v", width, dom))
	}
	if buckets < 1 {
		panic("workload: zipf needs at least one bucket")
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, v, uint64(buckets-1))
	return &Zipf{dom: dom, width: width, buckets: buckets, z: z, rng: rng}
}

// Next returns a Zipf-placed query: the bucket picks the coarse position,
// a uniform offset inside the bucket de-quantizes it.
func (z *Zipf) Next() Query {
	b := int64(z.z.Uint64())
	bucketWidth := z.dom.Width() / z.buckets
	if bucketWidth < 1 {
		bucketWidth = 1
	}
	lo := z.dom.Lo + b*bucketWidth + z.rng.Int63n(bucketWidth)
	return clampQuery(z.dom, lo, z.width)
}

// HotSpot describes one hot area of a skewed workload: queries fall inside
// Area with the given relative Weight.
type HotSpot struct {
	Area   domain.Range
	Weight float64
}

// Skewed confines queries to a small set of hot areas. §6.2's "skew"
// workload "extracts 200 subsequent queries from the log that access two
// very limited areas of the domain"; two hot spots reproduce that shape.
type Skewed struct {
	dom   domain.Range
	width int64
	spots []HotSpot
	total float64
	rng   *rand.Rand
}

// NewSkewed creates a skewed generator over the given hot spots.
func NewSkewed(dom domain.Range, width int64, spots []HotSpot, seed int64) *Skewed {
	if len(spots) == 0 {
		panic("workload: skewed needs at least one hot spot")
	}
	total := 0.0
	for _, h := range spots {
		if h.Weight <= 0 {
			panic("workload: hot spot weight must be positive")
		}
		if !dom.ContainsRange(h.Area) {
			panic(fmt.Sprintf("workload: hot spot %v outside domain %v", h.Area, dom))
		}
		total += h.Weight
	}
	return &Skewed{dom: dom, width: width, spots: spots, total: total, rng: rand.New(rand.NewSource(seed))}
}

// Next picks a hot spot by weight, then a position inside it.
func (s *Skewed) Next() Query {
	r := s.rng.Float64() * s.total
	spot := s.spots[len(s.spots)-1]
	for _, h := range s.spots {
		if r < h.Weight {
			spot = h
			break
		}
		r -= h.Weight
	}
	span := spot.Area.Width()
	lo := spot.Area.Lo + s.rng.Int63n(span)
	return clampQuery(s.dom, lo, s.width)
}

// Changing cycles through phases, each with its own generator, switching
// after a fixed number of queries. §6.2's "changing" workload "consists of
// four pieces of 50 subsequent queries with changing point of access".
type Changing struct {
	phases   []Generator
	perPhase int
	issued   int
}

// NewChanging creates a phased generator: perPhase queries from each
// generator in order, wrapping around after the last phase.
func NewChanging(perPhase int, phases ...Generator) *Changing {
	if perPhase < 1 || len(phases) == 0 {
		panic("workload: changing needs phases and a positive phase length")
	}
	return &Changing{phases: phases, perPhase: perPhase}
}

// Next returns the next query of the current phase.
func (c *Changing) Next() Query {
	phase := (c.issued / c.perPhase) % len(c.phases)
	c.issued++
	return c.phases[phase].Next()
}

// Sequential sweeps the domain left to right with fixed-width queries,
// useful as a fully predictable baseline in tests.
type Sequential struct {
	dom   domain.Range
	width int64
	pos   domain.Value
}

// NewSequential creates a sequential sweep generator.
func NewSequential(dom domain.Range, width int64) *Sequential {
	if width < 1 || width > dom.Width() {
		panic(fmt.Sprintf("workload: width %d outside domain %v", width, dom))
	}
	return &Sequential{dom: dom, width: width, pos: dom.Lo}
}

// Next returns the next window, wrapping at the domain end.
func (s *Sequential) Next() Query {
	if s.pos+s.width-1 > s.dom.Hi {
		s.pos = s.dom.Lo
	}
	q := Query{Lo: s.pos, Hi: s.pos + s.width - 1}
	s.pos += s.width
	return q
}

// Fixed replays a fixed list of queries, cycling at the end. Tests and the
// paper's worked examples (Fig. 3, Fig. 4) use it to drive exact scenarios.
type Fixed struct {
	queries []Query
	next    int
}

// NewFixed creates a generator replaying qs.
func NewFixed(qs ...Query) *Fixed {
	if len(qs) == 0 {
		panic("workload: fixed needs at least one query")
	}
	return &Fixed{queries: qs}
}

// Next returns the next fixed query, cycling.
func (f *Fixed) Next() Query {
	q := f.queries[f.next%len(f.queries)]
	f.next++
	return q
}
