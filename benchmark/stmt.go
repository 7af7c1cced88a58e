package main

import (
	"hash/fnv"
	"math/rand"
	"strconv"

	"selforg/internal/domain"
	"selforg/internal/workload"
)

// class is the statement class a latency is reported under.
type class uint8

const (
	clsCount class = iota
	clsSum
	clsSelect
	clsInsert
	clsUpdate
	clsDelete
	numClasses
)

var classNames = [numClasses]string{"count", "sum", "select", "insert", "update", "delete"}

func (c class) String() string { return classNames[c] }

// isWrite reports whether the class goes through the write path.
func (c class) isWrite() bool { return c >= clsInsert }

// stmt is one generated statement. Reads carry the inclusive range
// [a, b]; INSERT and DELETE carry the value in a; UPDATE replaces a by b.
type stmt struct {
	class class
	a, b  int64
}

// appendSQL renders the statement as the text the server receives. The
// program sees nothing else of the generator.
func (s stmt) appendSQL(dst []byte) []byte {
	switch s.class {
	case clsCount:
		dst = append(dst, "SELECT COUNT(*) FROM P WHERE v BETWEEN "...)
	case clsSum:
		dst = append(dst, "SELECT SUM(v) FROM P WHERE v BETWEEN "...)
	case clsSelect:
		dst = append(dst, "SELECT v FROM P WHERE v BETWEEN "...)
	case clsInsert:
		dst = append(dst, "INSERT INTO P VALUES ("...)
		dst = strconv.AppendInt(dst, s.a, 10)
		return append(dst, ')')
	case clsUpdate:
		dst = append(dst, "UPDATE P SET v = "...)
		dst = strconv.AppendInt(dst, s.b, 10)
		dst = append(dst, " WHERE v = "...)
		return strconv.AppendInt(dst, s.a, 10)
	case clsDelete:
		dst = append(dst, "DELETE FROM P WHERE v = "...)
		return strconv.AppendInt(dst, s.a, 10)
	}
	dst = strconv.AppendInt(dst, s.a, 10)
	dst = append(dst, " AND "...)
	return strconv.AppendInt(dst, s.b, 10)
}

func (s stmt) sql() string { return string(s.appendSQL(nil)) }

// generator produces one client's statement stream. It is a pure
// function of its seed: it never looks at a reply.
type generator interface {
	next() stmt
}

// subSeed derives an independent stream seed from the run seed, the
// workload name and a stream label, so that no two streams of a run share
// a random sequence.
func subSeed(seed int64, workload, stream string, n int) int64 {
	h := fnv.New64a()
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
		b[8+i] = byte(n >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(workload))
	h.Write([]byte{0})
	h.Write([]byte(stream))
	s := int64(h.Sum64() &^ (1 << 63))
	if s == 0 {
		s = 1 // server.Config treats seed 0 as "use the default"
	}
	return s
}

// mixGen draws a class by weight and a range from the class's own
// position generator.
type mixGen struct {
	rng     *rand.Rand
	classes []class
	cum     []float64 // cumulative weights, last = 1
	ranges  []workload.Generator
}

func (g *mixGen) next() stmt {
	r := g.rng.Float64()
	i := 0
	for i < len(g.cum)-1 && r >= g.cum[i] {
		i++
	}
	q := g.ranges[i].Next()
	return stmt{class: g.classes[i], a: q.Lo, b: q.Hi}
}

// newMix builds a mixGen; weights need not be normalized.
func newMix(seed int64, classes []class, weights []float64, ranges []workload.Generator) *mixGen {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	return &mixGen{rng: rand.New(rand.NewSource(seed)), classes: classes, cum: cum, ranges: ranges}
}

// rwGen is one mixed_rw client: half writes (INSERT 50 / UPDATE 25 /
// DELETE 25), half reads. It writes only values of its own parity and
// mutates only values it inserted itself, so the other client can never
// change what this one must read back. The live multiset is part of the
// generator's state: the stream stays a function of the seed alone as
// long as no statement fails, and a failure is a reported error anyway.
type rwGen struct {
	rng    *rand.Rand
	dom    domain.Range
	parity int64
	width  int64 // narrow SELECT width
	live   *liveSet
	gone   []int64 // ring of values this client deleted or updated away
	goneAt int
}

func newRWGen(seed int64, dom domain.Range, parity int64, width int64) *rwGen {
	return &rwGen{
		rng:    rand.New(rand.NewSource(seed)),
		dom:    dom,
		parity: parity,
		width:  width,
		live:   newLiveSet(dom),
		gone:   make([]int64, 0, 64),
	}
}

// fresh draws a value of the client's parity.
func (g *rwGen) fresh() int64 {
	v := g.dom.Lo + g.rng.Int63n(g.dom.Width())
	if v&1 != g.parity {
		v ^= 1
	}
	return v
}

func (g *rwGen) forget(v int64) {
	if len(g.gone) < cap(g.gone) {
		g.gone = append(g.gone, v)
		return
	}
	g.gone[g.goneAt] = v
	g.goneAt = (g.goneAt + 1) % len(g.gone)
}

func (g *rwGen) next() stmt {
	r := g.rng.Intn(100)
	switch {
	case r < 25 || (r < 50 && g.live.len() == 0):
		v := g.fresh()
		g.live.add(v)
		return stmt{class: clsInsert, a: v}
	case r < 38:
		old := g.live.removeAt(g.rng.Intn(g.live.len()))
		nv := g.fresh()
		g.live.add(nv)
		g.forget(old)
		return stmt{class: clsUpdate, a: old, b: nv}
	case r < 50:
		v := g.live.removeAt(g.rng.Intn(g.live.len()))
		g.forget(v)
		return stmt{class: clsDelete, a: v}
	case r < 75:
		// Point count on an own-parity value: mostly one this client holds
		// (read-your-writes), sometimes one it took away again.
		var v int64
		switch {
		case g.live.len() > 0 && (len(g.gone) == 0 || g.rng.Intn(4) != 0):
			v = g.live.at(g.rng.Intn(g.live.len()))
		case len(g.gone) > 0:
			v = g.gone[g.rng.Intn(len(g.gone))]
		default:
			v = g.fresh()
		}
		return stmt{class: clsCount, a: v, b: v}
	default:
		lo := g.dom.Lo + g.rng.Int63n(g.dom.Width()-g.width+1)
		return stmt{class: clsSelect, a: lo, b: lo + g.width - 1}
	}
}

// adaptGen is one adapt_cold client: rounds of four phases, each phase
// confined to two hot areas 2% of the domain wide (workload.Skewed).
// A round's areas come from the run seed and the round's number alone,
// so both clients move through the same areas; each lies in an eighth of
// the domain of its own, so no phase inherits another's organization;
// and every round is a new placement, so a run of some thirty rounds
// averages over placements instead of depending on one.
type adaptGen struct {
	dom      domain.Range
	name     string // workload name, for seeding
	seed     int64
	stream   string
	client   int
	perPhase int
	width    int64
	issued   int
	mix      *rand.Rand
	phases   [4]workload.Generator
}

func (g *adaptGen) next() stmt {
	per := len(g.phases) * g.perPhase
	if g.issued%per == 0 {
		g.newRound(g.issued / per)
	}
	q := g.phases[g.issued%per/g.perPhase].Next()
	g.issued++
	c := clsSelect
	if g.mix.Intn(5) == 0 {
		c = clsCount
	}
	return stmt{class: c, a: q.Lo, b: q.Hi}
}

func (g *adaptGen) newRound(round int) {
	place := rand.New(rand.NewSource(subSeed(g.seed, g.name, "areas", round)))
	slots := place.Perm(2 * len(g.phases))
	slot, area := g.dom.Width()/int64(len(slots)), g.dom.Width()/50
	for p := range g.phases {
		spots := make([]workload.HotSpot, 2)
		for i := range spots {
			lo := g.dom.Lo + int64(slots[2*p+i])*slot + place.Int63n(slot-area)
			spots[i] = workload.HotSpot{Area: domain.NewRange(lo, lo+area-1), Weight: 1}
		}
		g.phases[p] = workload.NewSkewed(g.dom, g.width, spots,
			subSeed(g.seed, g.name, g.stream+"/phase", (round*len(g.phases)+p)*clients+g.client))
	}
}
