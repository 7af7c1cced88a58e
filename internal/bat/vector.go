package bat

import "fmt"

// Vector is one column of a BAT: a contiguous, typed sequence of atoms,
// implemented by the slice-backed vectors below. Implementations are
// value containers, not synchronized structures: concurrent readers are
// safe on a vector nobody appends to (the parallel operators rely on
// this), while mutation needs external ownership.
type Vector interface {
	Kind() Kind
	Len() int
	Get(i int) Value
	// Append adds a value (of the vector's kind) and returns the updated
	// vector (append semantics: the receiver may be reused or replaced).
	Append(v Value) Vector
	// Slice returns the half-open sub-vector [i, j) sharing storage where
	// possible — the "split at any point" property of §2.
	Slice(i, j int) Vector
	// Empty returns a fresh zero-length vector of the same kind.
	Empty() Vector
}

// NewVector returns an empty vector of the given kind.
func NewVector(k Kind) Vector {
	switch k {
	case KOid:
		return &OidVector{}
	case KLng:
		return &LngVector{}
	case KDbl:
		return &DblVector{}
	case KStr:
		return &StrVector{}
	case KBit:
		return &BitVector{}
	default:
		panic(fmt.Sprintf("bat: unknown kind %v", k))
	}
}

// OidVector stores object identifiers. The common case — a densely
// ascending head starting at some base — is stored as just (base, n),
// MonetDB's void head; materialization happens lazily on first
// non-dense operation.
type OidVector struct {
	dense bool
	base  uint64
	n     int
	vals  []uint64
}

// NewDenseOids returns the dense oid sequence base, base+1, ..., base+n-1.
func NewDenseOids(base uint64, n int) *OidVector {
	if n < 0 {
		panic("bat: negative length")
	}
	return &OidVector{dense: true, base: base, n: n}
}

// NewOids returns a materialized oid vector holding vals.
func NewOids(vals []uint64) *OidVector { return &OidVector{vals: vals} }

// Dense reports whether the vector is in dense (void) representation.
func (o *OidVector) Dense() bool { return o.dense }

// Kind implements Vector.
func (o *OidVector) Kind() Kind { return KOid }

// Len implements Vector.
func (o *OidVector) Len() int {
	if o.dense {
		return o.n
	}
	return len(o.vals)
}

// Get implements Vector.
func (o *OidVector) Get(i int) Value {
	if o.dense {
		if i < 0 || i >= o.n {
			panic(fmt.Sprintf("bat: oid index %d out of %d", i, o.n))
		}
		return Oid(o.base + uint64(i))
	}
	return Oid(o.vals[i])
}

// Append implements Vector, materializing a dense vector first.
func (o *OidVector) Append(v Value) Vector {
	m := o.materialize()
	m.vals = append(m.vals, v.AsOid())
	return m
}

// Slice implements Vector. Dense slices stay dense.
func (o *OidVector) Slice(i, j int) Vector {
	if o.dense {
		if i < 0 || j > o.n || i > j {
			panic(fmt.Sprintf("bat: oid slice [%d, %d) out of %d", i, j, o.n))
		}
		return &OidVector{dense: true, base: o.base + uint64(i), n: j - i}
	}
	return &OidVector{vals: o.vals[i:j]}
}

// Empty implements Vector.
func (o *OidVector) Empty() Vector { return &OidVector{} }

// materialize converts a dense vector into explicit storage.
func (o *OidVector) materialize() *OidVector {
	if !o.dense {
		return o
	}
	vals := make([]uint64, o.n)
	for i := range vals {
		vals[i] = o.base + uint64(i)
	}
	return &OidVector{vals: vals}
}

// LngVector stores 64-bit integers.
type LngVector struct{ vals []int64 }

// NewLngs wraps vals (not copied).
func NewLngs(vals []int64) *LngVector { return &LngVector{vals: vals} }

// Lngs exposes the underlying storage (read-only use).
func (l *LngVector) Lngs() []int64 { return l.vals }

// Kind implements Vector.
func (l *LngVector) Kind() Kind { return KLng }

// Len implements Vector.
func (l *LngVector) Len() int { return len(l.vals) }

// Get implements Vector.
func (l *LngVector) Get(i int) Value { return Lng(l.vals[i]) }

// Append implements Vector.
func (l *LngVector) Append(v Value) Vector {
	l.vals = append(l.vals, v.AsLng())
	return l
}

// Slice implements Vector.
func (l *LngVector) Slice(i, j int) Vector { return &LngVector{vals: l.vals[i:j]} }

// Empty implements Vector.
func (l *LngVector) Empty() Vector { return &LngVector{} }

// DblVector stores 64-bit floats.
type DblVector struct{ vals []float64 }

// NewDbls wraps vals (not copied).
func NewDbls(vals []float64) *DblVector { return &DblVector{vals: vals} }

// Dbls exposes the underlying storage (read-only use).
func (d *DblVector) Dbls() []float64 { return d.vals }

// Kind implements Vector.
func (d *DblVector) Kind() Kind { return KDbl }

// Len implements Vector.
func (d *DblVector) Len() int { return len(d.vals) }

// Get implements Vector.
func (d *DblVector) Get(i int) Value { return Dbl(d.vals[i]) }

// Append implements Vector.
func (d *DblVector) Append(v Value) Vector {
	d.vals = append(d.vals, v.AsDbl())
	return d
}

// Slice implements Vector.
func (d *DblVector) Slice(i, j int) Vector { return &DblVector{vals: d.vals[i:j]} }

// Empty implements Vector.
func (d *DblVector) Empty() Vector { return &DblVector{} }

// StrVector stores strings.
type StrVector struct{ vals []string }

// NewStrs wraps vals (not copied).
func NewStrs(vals []string) *StrVector { return &StrVector{vals: vals} }

// Kind implements Vector.
func (s *StrVector) Kind() Kind { return KStr }

// Len implements Vector.
func (s *StrVector) Len() int { return len(s.vals) }

// Get implements Vector.
func (s *StrVector) Get(i int) Value { return Str(s.vals[i]) }

// Append implements Vector.
func (s *StrVector) Append(v Value) Vector {
	s.vals = append(s.vals, v.AsStr())
	return s
}

// Slice implements Vector.
func (s *StrVector) Slice(i, j int) Vector { return &StrVector{vals: s.vals[i:j]} }

// Empty implements Vector.
func (s *StrVector) Empty() Vector { return &StrVector{} }

// BitVector stores booleans.
type BitVector struct{ vals []bool }

// Kind implements Vector.
func (b *BitVector) Kind() Kind { return KBit }

// Len implements Vector.
func (b *BitVector) Len() int { return len(b.vals) }

// Get implements Vector.
func (b *BitVector) Get(i int) Value { return Bit(b.vals[i]) }

// Append implements Vector.
func (b *BitVector) Append(v Value) Vector {
	b.vals = append(b.vals, v.AsBit())
	return b
}

// Slice implements Vector.
func (b *BitVector) Slice(i, j int) Vector { return &BitVector{vals: b.vals[i:j]} }

// Empty implements Vector.
func (b *BitVector) Empty() Vector { return &BitVector{} }
