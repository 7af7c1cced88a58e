// Package bat implements the MonetDB storage substrate described in §2: a
// binary association table (BAT) is a 2-column structure whose elements
// are "physically stored in a contiguous area ... no holes, deleted
// elements, or auxiliary data", which means "a bat can be conveniently
// split at any point". The package provides the BAT kernel operators that
// the paper's MAL plans use (Figure 1): range selections, the k-operators
// (kunion/kdifference/kintersect), reverse/mirror/mark, joins and
// aggregates.
//
// Columns are typed through the Vector interface; the compressed
// encodings of internal/compress implement it too, so every operator
// runs over compressed data transparently (RangeSelect additionally
// picks up their compressed-form span fast path through RangeSpanner).
package bat
