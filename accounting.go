package selforg

// The column's lifetime accounting: the Stats every operation returns
// and the accumulator behind Totals and Queries.

import (
	"sync/atomic"

	"selforg/internal/core"
)

// Stats aggregates per-query costs, mirroring the paper's measures:
// memory reads, memory writes due to segment materialization, result
// cardinality, reorganization activity and the storage snapshot after
// the query. It is core.QueryStats, where the fields are documented.
type Stats = core.QueryStats

// totalsAcc is the column's lifetime Stats accumulator: one atomic per
// additive measure, plus carry-last cells for the storage snapshot,
// mirroring Stats.Add exactly. All-atomic so the facade adds no lock
// acquisition to the query path and scrapes never contend with queries.
type totalsAcc struct {
	readBytes, writeBytes, resultCount atomic.Int64
	splits, drops, recodes             atomic.Int64
	deltaReadBytes, merged             atomic.Int64
	storageBytes, compressedBytes      atomic.Int64
	nq                                 atomic.Int64
}

// add accumulates one operation's stats (the atomic Stats.Add).
func (a *totalsAcc) add(st Stats) {
	a.readBytes.Add(st.ReadBytes)
	a.writeBytes.Add(st.WriteBytes)
	a.resultCount.Add(st.ResultCount)
	a.splits.Add(int64(st.Splits))
	a.drops.Add(int64(st.Drops))
	a.recodes.Add(int64(st.Recodes))
	a.deltaReadBytes.Add(st.DeltaReadBytes)
	a.merged.Add(int64(st.Merged))
	// Carry-last semantics: the storage snapshot of the latest
	// operation wins, as in Stats.Add.
	a.storageBytes.Store(st.StorageBytes)
	a.compressedBytes.Store(st.CompressedBytes)
}

// query accumulates one read query's stats and bumps the query count.
func (a *totalsAcc) query(st Stats) {
	a.add(st)
	a.nq.Add(1)
}

// snapshot assembles the accumulated Stats value.
func (a *totalsAcc) snapshot() Stats {
	return Stats{
		ReadBytes:       a.readBytes.Load(),
		WriteBytes:      a.writeBytes.Load(),
		ResultCount:     a.resultCount.Load(),
		Splits:          int(a.splits.Load()),
		Drops:           int(a.drops.Load()),
		Recodes:         int(a.recodes.Load()),
		DeltaReadBytes:  a.deltaReadBytes.Load(),
		Merged:          int(a.merged.Load()),
		StorageBytes:    a.storageBytes.Load(),
		CompressedBytes: a.compressedBytes.Load(),
	}
}

// Totals returns the accumulated statistics over all queries. The
// accumulator is all-atomic: under concurrent queries each additive
// field is exact, while the snapshot as a whole is a consistent-enough
// cut (fields are loaded one by one, not under one lock).
func (c *Column) Totals() Stats {
	return c.acct.snapshot()
}

// Queries returns the number of Select, Count and Sum calls served.
func (c *Column) Queries() int {
	return int(c.acct.nq.Load())
}
