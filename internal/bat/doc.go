// Package bat implements the MonetDB storage substrate described in §2: a
// binary association table (BAT) is a 2-column structure whose elements
// are "physically stored in a contiguous area ... no holes, deleted
// elements, or auxiliary data", which means "a bat can be conveniently
// split at any point". The package provides the BAT kernel operators that
// the paper's MAL plans use (Figure 1): range selections, the k-operators
// (kunion/kdifference/kintersect), reverse/mirror/mark, joins and
// aggregates.
//
// Columns are typed through the Vector interface, implemented by the
// uncompressed LngVector, DblVector, OidVector, StrVector and BitVector
// only: the MAL stack is the figures' harness, and the engine's
// per-segment compression (internal/compress) does not reach it.
package bat
