package wal

// Checkpoint files. A checkpoint captures one shard's full logical
// content (every value, multiplicity preserved) plus the last commit
// seq folded into it, segment by segment: a boundary table gives each
// segment's value range and value count, and the values follow in
// segment order. Recovery rebuilds the shard from it — a segmented
// shard keeps the learned layout, one segment per entry, with no split
// — and replays only WAL batches with seq > the checkpoint's, so the
// crash window between writing a checkpoint and rotating the log can
// never double-apply a batch.
//
//	magic "SOCKPT02" | seq u64 | count u64 | nseg u64
//	| (lo i64 | hi i64 | n u64) * nseg | value i64 * count | crc u32
//
// The table must tile one range: ranges non-empty, ascending and
// adjacent, the n summing to count, and every value inside its
// segment's range. Version 1 files ("SOCKPT01", one unsegmented value
// dump) are rejected with ErrCorrupt naming the version; there is no
// second reader.
//
// The file is written to a temp name, fsynced, then renamed over the
// target: readers see the old checkpoint or the new one, never a torn
// mix. The trailing CRC (Castagnoli, over everything before it) guards
// against a torn rename on filesystems without atomic-rename semantics
// and against bit rot; a corrupt checkpoint fails recovery loudly
// rather than resurrecting half a shard.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"selforg/internal/domain"
)

var (
	ckptMagic   = [8]byte{'S', 'O', 'C', 'K', 'P', 'T', '0', '2'}
	ckptMagicV1 = [8]byte{'S', 'O', 'C', 'K', 'P', 'T', '0', '1'}
)

const (
	ckptHeader = 32 // magic + seq + count + nseg
	ckptEntry  = 24 // lo + hi + n
)

// Segment is one segment of a checkpointed shard: its value range and
// the values it holds.
type Segment struct {
	Rng  domain.Range
	Vals []domain.Value
}

// writeFileAtomic writes buf to path via a temp file: write, fsync,
// close, rename over the target, then best-effort fsync of the
// directory so the rename itself is durable. Readers see the old file
// or the new one, never a torn mix.
func writeFileAtomic(path string, buf []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// appendCheckpoint appends the checkpoint encoding of segs at seq to
// buf. The segments are written as given; ReadCheckpoint rejects a
// table that does not tile one range.
func appendCheckpoint(buf []byte, seq uint64, segs []Segment) []byte {
	var count int
	for _, sg := range segs {
		count += len(sg.Vals)
	}
	start := len(buf)
	buf = append(buf, ckptMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(count))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(segs)))
	for _, sg := range segs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sg.Rng.Lo))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sg.Rng.Hi))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(sg.Vals)))
	}
	for _, sg := range segs {
		for _, v := range sg.Vals {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// WriteCheckpoint atomically writes a checkpoint file at path.
func WriteCheckpoint(path string, seq uint64, segs []Segment) error {
	size := ckptHeader + ckptEntry*len(segs) + 4
	for _, sg := range segs {
		size += 8 * len(sg.Vals)
	}
	return writeFileAtomic(path, appendCheckpoint(make([]byte, 0, size), seq, segs))
}

// ReadCheckpoint loads and validates a checkpoint file. A missing file
// is not an error: ok reports whether a checkpoint existed. A present
// but corrupt file returns ErrCorrupt — recovery must fail loudly, not
// silently start empty.
func ReadCheckpoint(path string) (seq uint64, segs []Segment, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, err
	}
	seq, segs, err = decodeCheckpoint(data)
	if err != nil {
		return 0, nil, false, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return seq, segs, true, nil
}

// decodeCheckpoint decodes and validates one checkpoint file's bytes.
// The segments' value slices share one backing array, each capped at
// its own length, so a segment that grows never overwrites the next.
func decodeCheckpoint(data []byte) (seq uint64, segs []Segment, err error) {
	if len(data) >= 8 && [8]byte(data[:8]) == ckptMagicV1 {
		return 0, nil, fmt.Errorf("version 1 checkpoint (magic %q, no segment table) is not read by this build", ckptMagicV1[:])
	}
	if len(data) < ckptHeader+4 || [8]byte(data[:8]) != ckptMagic {
		return 0, nil, fmt.Errorf("bad header")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return 0, nil, fmt.Errorf("crc mismatch")
	}
	seq = binary.LittleEndian.Uint64(data[8:])
	count := binary.LittleEndian.Uint64(data[16:])
	nseg := binary.LittleEndian.Uint64(data[24:])
	rest := uint64(len(body) - ckptHeader)
	if nseg == 0 || nseg > rest/ckptEntry || count > rest/8 || nseg*ckptEntry+count*8 != rest {
		return 0, nil, fmt.Errorf("%d segments and %d values disagree with length", nseg, count)
	}
	vals := make([]domain.Value, count)
	for i := range vals {
		vals[i] = domain.Value(binary.LittleEndian.Uint64(data[ckptHeader+ckptEntry*int(nseg)+8*i:]))
	}
	segs = make([]Segment, nseg)
	var at uint64
	for i := range segs {
		e := data[ckptHeader+ckptEntry*i:]
		rng := domain.Range{Lo: domain.Value(binary.LittleEndian.Uint64(e)), Hi: domain.Value(binary.LittleEndian.Uint64(e[8:]))}
		n := binary.LittleEndian.Uint64(e[16:])
		if rng.IsEmpty() {
			return 0, nil, fmt.Errorf("segment %d: empty range %v", i, rng)
		}
		if i > 0 && (segs[i-1].Rng.Hi >= rng.Lo || !segs[i-1].Rng.Adjacent(rng)) {
			return 0, nil, fmt.Errorf("segment %d: %v does not follow %v", i, rng, segs[i-1].Rng)
		}
		if n > count-at {
			return 0, nil, fmt.Errorf("segment counts exceed the value count %d", count)
		}
		sv := vals[at : at+n : at+n]
		for _, v := range sv {
			if !rng.Contains(v) {
				return 0, nil, fmt.Errorf("segment %d: value %d outside %v", i, v, rng)
			}
		}
		segs[i] = Segment{Rng: rng, Vals: sv}
		at += n
	}
	if at != count {
		return 0, nil, fmt.Errorf("segment counts sum to %d, want %d", at, count)
	}
	return seq, segs, nil
}

// Checkpoint manifest. A checkpoint spans every shard, but the
// per-shard files cannot be written as one atomic unit — a crash
// partway would leave some shards checkpointed at the new seq and
// others at an old one, and a cross-shard update logged only in one
// shard's log could fall into the gap and be lost. The manifest closes
// that hole: the shard files are written under a fresh generation
// number first, then this single file — naming the generation and the
// one seq every shard's checkpoint carries — is atomically renamed
// into place. Until the rename, the previous generation (or none) is
// fully active; after it, every shard is checkpointed at the SAME seq.
//
//	magic "SOCKMF01" | gen u64 | seq u64 | crc u32
var manifestMagic = [8]byte{'S', 'O', 'C', 'K', 'M', 'F', '0', '1'}

// WriteManifest atomically commits checkpoint generation gen at seq.
func WriteManifest(path string, gen, seq uint64) error {
	buf := make([]byte, 0, 28)
	buf = append(buf, manifestMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return writeFileAtomic(path, buf)
}

// ReadManifest loads the checkpoint manifest. A missing file is not an
// error (ok=false: no checkpoint generation is committed); a present
// but corrupt one returns ErrCorrupt — recovery must fail loudly, not
// silently fall back to an older state.
func ReadManifest(path string) (gen, seq uint64, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, err
	}
	if len(data) != 28 || [8]byte(data[:8]) != manifestMagic {
		return 0, 0, false, fmt.Errorf("%w: %s: bad manifest header", ErrCorrupt, path)
	}
	if crc32.Checksum(data[:24], castagnoli) != binary.LittleEndian.Uint32(data[24:]) {
		return 0, 0, false, fmt.Errorf("%w: %s: manifest crc mismatch", ErrCorrupt, path)
	}
	return binary.LittleEndian.Uint64(data[8:]), binary.LittleEndian.Uint64(data[16:]), true, nil
}
