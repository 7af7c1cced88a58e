// Package wal implements the per-shard write-ahead log behind the
// durability subsystem: CRC-framed batches of write operations appended
// and fsynced by the group committer, replayed onto the last checkpoint
// after a crash.
//
// # Frame format
//
//	+----------+----------+===========================+
//	| len u32  | crc u32  | payload (len bytes)       |
//	+----------+----------+===========================+
//
//	payload = seq u64 | count u32 | record*count
//	record  = kind u8 | value i64            (insert, delete)
//	        | kind u8 | old i64 | new i64    (update)
//
// All integers are little-endian. len covers the payload only; crc is
// CRC-32 (Castagnoli) of the payload. seq is the column-wide commit
// sequence number the group committer assigns — every shard's log
// carries the shard's slice of batch seq, so recovery can re-interleave
// the per-shard logs into global commit order.
//
// # Torn tails
//
// A crash mid-append leaves a torn frame: short header, short payload,
// or a payload whose CRC does not match. Decode scans frames
// sequentially and stops at the first invalid one, reporting the length
// of the valid prefix; Open truncates the file there. Everything before
// the torn frame was fsynced by an earlier group commit (the committer
// acks only after fsync), so truncation never loses an acknowledged
// write.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"selforg/internal/delta"
	"selforg/internal/domain"
)

// castagnoli is the CRC-32C table (hardware-accelerated on most CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeader = 8  // len u32 + crc u32
	batchHeader = 12 // seq u64 + count u32
	// maxPayload bounds a single frame, protecting the decoder from
	// allocating on a corrupt length field. 1<<26 (64 MiB) is far above
	// any real group-commit batch.
	maxPayload = 1 << 26
)

// record kind codes. Distinct from delta.OpKind on purpose: the wire
// format is persistent, the in-memory enum is not.
const (
	recInsert byte = 1
	recDelete byte = 2
	recUpdate byte = 3
)

// Batch is one decoded group-commit frame.
type Batch struct {
	Seq uint64
	Ops []delta.Op
}

// AppendFrame encodes one batch as a frame and appends it to buf,
// returning the extended slice.
func AppendFrame(buf []byte, seq uint64, ops []delta.Op) []byte {
	// Payload size: batch header plus per-record width.
	n := batchHeader
	for _, op := range ops {
		if op.Kind == delta.OpUpdate {
			n += 17
		} else {
			n += 9
		}
	}
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader+n)...)
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint64(payload[0:], seq)
	binary.LittleEndian.PutUint32(payload[8:], uint32(len(ops)))
	w := batchHeader
	for _, op := range ops {
		switch op.Kind {
		case delta.OpInsert:
			payload[w] = recInsert
			binary.LittleEndian.PutUint64(payload[w+1:], uint64(op.V))
			w += 9
		case delta.OpDelete:
			payload[w] = recDelete
			binary.LittleEndian.PutUint64(payload[w+1:], uint64(op.V))
			w += 9
		case delta.OpUpdate:
			payload[w] = recUpdate
			binary.LittleEndian.PutUint64(payload[w+1:], uint64(op.V))
			binary.LittleEndian.PutUint64(payload[w+9:], uint64(op.New))
			w += 17
		default:
			panic(fmt.Sprintf("wal: unknown op kind %d", op.Kind))
		}
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// Decode scans data frame by frame, calling fn for every valid batch in
// order, and returns the byte length of the valid prefix. It stops —
// without error — at the first torn or corrupt frame (short header,
// short or oversized payload, CRC mismatch, malformed records): that is
// the crash boundary, everything after it is discarded. An error from
// fn aborts the scan and is returned with the offset of the frame that
// produced it.
func Decode(data []byte, fn func(Batch) error) (int64, error) {
	off := 0
	for {
		if len(data)-off < frameHeader {
			return int64(off), nil
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n < batchHeader || n > maxPayload || len(data)-off-frameHeader < n {
			return int64(off), nil
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != crc {
			return int64(off), nil
		}
		b, ok := decodePayload(payload)
		if !ok {
			return int64(off), nil
		}
		if fn != nil {
			if err := fn(b); err != nil {
				return int64(off), err
			}
		}
		off += frameHeader + n
	}
}

// decodePayload parses one CRC-verified payload into a Batch. A
// malformed record set (count disagreeing with the byte length, unknown
// kind) reports !ok — the frame is treated as corrupt even though the
// CRC matched, so a buggy writer can never crash the decoder.
func decodePayload(p []byte) (Batch, bool) {
	seq := binary.LittleEndian.Uint64(p[0:])
	count := int(binary.LittleEndian.Uint32(p[8:]))
	// Each record is ≥ 9 bytes, so a count the remaining bytes cannot
	// hold is malformed — rejecting it here also bounds the slice
	// pre-allocation below on CRC-valid but corrupt frames.
	if count < 0 || count > (len(p)-batchHeader)/9 {
		return Batch{}, false
	}
	ops := make([]delta.Op, 0, count)
	w := batchHeader
	for i := 0; i < count; i++ {
		if w >= len(p) {
			return Batch{}, false
		}
		switch p[w] {
		case recInsert, recDelete:
			if len(p)-w < 9 {
				return Batch{}, false
			}
			kind := delta.OpInsert
			if p[w] == recDelete {
				kind = delta.OpDelete
			}
			ops = append(ops, delta.Op{
				Kind: kind,
				V:    domain.Value(binary.LittleEndian.Uint64(p[w+1:])),
			})
			w += 9
		case recUpdate:
			if len(p)-w < 17 {
				return Batch{}, false
			}
			ops = append(ops, delta.Op{
				Kind: delta.OpUpdate,
				V:    domain.Value(binary.LittleEndian.Uint64(p[w+1:])),
				New:  domain.Value(binary.LittleEndian.Uint64(p[w+9:])),
			})
			w += 17
		default:
			return Batch{}, false
		}
	}
	if w != len(p) {
		return Batch{}, false
	}
	return Batch{Seq: seq, Ops: ops}, true
}

// Log is one shard's append-only write-ahead log. The group committer is
// its only writer; it is not safe for concurrent use.
type Log struct {
	f    *os.File
	size int64
}

// Open opens (creating if absent) the log at path, scans it, truncates
// any torn tail, and returns the log positioned for appends plus every
// valid batch found — the replay input for recovery. Duplicate or
// out-of-order seqs are returned as-is; the recovery layer skips
// anything at or below the checkpoint's seq.
func Open(path string) (*Log, []Batch, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	var batches []Batch
	valid, err := Decode(data, func(b Batch) error {
		batches = append(batches, b)
		return nil
	})
	if err != nil {
		f.Close()
		return nil, nil, err // unreachable: the scan fn never fails
	}
	if valid < int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Log{f: f, size: valid}, batches, nil
}

// AppendBatch appends one frame. The data is NOT durable until Sync
// returns — the group committer appends every shard's frame for a
// batch, then syncs the touched logs, then acks.
func (l *Log) AppendBatch(seq uint64, ops []delta.Op) (int64, error) {
	buf := AppendFrame(nil, seq, ops)
	if _, err := l.f.Write(buf); err != nil {
		return 0, err
	}
	l.size += int64(len(buf))
	return int64(len(buf)), nil
}

// Sync flushes appended frames to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Size returns the current log length in bytes.
func (l *Log) Size() int64 { return l.size }

// Rotate discards the log's content — called after a checkpoint has made
// everything in it redundant. The truncation is itself synced so a
// crash right after cannot resurrect pre-checkpoint frames (they would
// be skipped by seq anyway; this just keeps the file honest).
func (l *Log) Rotate() error { return l.TruncateTo(0) }

// TruncateTo rolls the log back to a prior length — the committer's
// undo for a batch whose append or sync failed partway: the frames
// already written for the failed batch are cut off so a later recovery
// cannot replay them as if they had committed. The truncation is
// synced before it is trusted.
func (l *Log) TruncateTo(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		return err
	}
	if _, err := l.f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	l.size = size
	return l.f.Sync()
}

// Close closes the underlying file.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ErrCorrupt reports a structurally invalid checkpoint file.
var ErrCorrupt = errors.New("wal: corrupt checkpoint")
