package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"selforg/internal/delta"
	"selforg/internal/domain"
)

func sampleOps() []delta.Op {
	return []delta.Op{
		{Kind: delta.OpInsert, V: 42},
		{Kind: delta.OpDelete, V: -7},
		{Kind: delta.OpUpdate, V: 1 << 40, New: -(1 << 40)},
	}
}

// TestLogRoundTrip: append batches, close, reopen — every batch comes
// back byte-exact, and the reopened log keeps appending after them.
func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0000.wal")
	l, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh log decoded %d batches", len(got))
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := l.AppendBatch(seq, sampleOps()); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != 3 {
		t.Fatalf("reopened log decoded %d batches, want 3", len(got))
	}
	for i, b := range got {
		if b.Seq != uint64(i+1) || !reflect.DeepEqual(b.Ops, sampleOps()) {
			t.Fatalf("batch %d mismatch: %+v", i, b)
		}
	}
	if _, err := l2.AppendBatch(4, sampleOps()); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	_, got, err = Open(path) // concurrent second open is fine for reading in tests
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("after reopen+append: %d batches, want 4", len(got))
	}
}

// TestTornTailTruncated: a partial final frame — any cut point — is
// discarded on open, and the file is physically truncated back to the
// valid prefix so new appends never interleave with garbage.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	full := AppendFrame(nil, 1, sampleOps())
	full = AppendFrame(full, 2, sampleOps())
	frame1 := len(AppendFrame(nil, 1, sampleOps()))
	for cut := frame1 + 1; cut < len(full); cut += 7 {
		path := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != 1 || got[0].Seq != 1 {
			t.Fatalf("cut %d: decoded %d batches", cut, len(got))
		}
		if l.Size() != int64(frame1) {
			t.Fatalf("cut %d: size %d, want %d", cut, l.Size(), frame1)
		}
		if fi, _ := os.Stat(path); fi.Size() != int64(frame1) {
			t.Fatalf("cut %d: file not truncated (%d bytes)", cut, fi.Size())
		}
		l.Close()
	}
}

// TestBitFlipRejected: flipping any single byte of a frame invalidates
// exactly the frames at or after it.
func TestBitFlipRejected(t *testing.T) {
	full := AppendFrame(nil, 7, sampleOps())
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		n := 0
		valid, err := Decode(mut, func(Batch) error { n++; return nil })
		if err != nil {
			t.Fatal(err)
		}
		// A flipped byte may still yield a structurally valid frame only
		// if it produced a matching CRC — astronomically unlikely for a
		// single flip; assert the frame is dropped.
		if n != 0 || valid != 0 {
			t.Fatalf("flip at %d: decoded %d batches, valid %d", i, n, valid)
		}
	}
}

// TestRotate empties the log for post-checkpoint reuse.
func TestRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendBatch(1, sampleOps()); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("size after rotate = %d", l.Size())
	}
	if _, err := l.AppendBatch(2, sampleOps()); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("post-rotate decode: %+v", got)
	}
}

// TestTruncateTo rolls the log back to a prior length — the rollback
// for a failed group commit: frames appended after the cut vanish,
// frames before it survive, and the log keeps appending at the cut.
func TestTruncateTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rb.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendBatch(1, sampleOps()); err != nil {
		t.Fatal(err)
	}
	cut := l.Size()
	if _, err := l.AppendBatch(2, sampleOps()); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateTo(cut); err != nil {
		t.Fatal(err)
	}
	if l.Size() != cut {
		t.Fatalf("size after rollback = %d, want %d", l.Size(), cut)
	}
	if _, err := l.AppendBatch(3, sampleOps()); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 3 {
		t.Fatalf("post-rollback decode: %+v", got)
	}
}

// TestDecodeRejectsOversizedCount: a CRC-valid frame whose count field
// claims more records than the payload could hold is rejected before
// the decoder sizes any allocation from it.
func TestDecodeRejectsOversizedCount(t *testing.T) {
	frame := AppendFrame(nil, 1, sampleOps())
	payload := frame[frameHeader:]
	// Patch count far beyond what the payload bytes can carry and
	// re-seal the CRC so only the malformed-count check can reject it.
	binary.LittleEndian.PutUint32(payload[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	n := 0
	valid, err := Decode(frame, func(Batch) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || valid != 0 {
		t.Fatalf("oversized count accepted: %d batches, valid %d", n, valid)
	}
}

// TestManifestRoundTrip: write → read is exact; missing is a clean "no
// checkpoint generation"; corruption is loud.
func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "CHECKPOINT")
	if err := WriteManifest(path, 3, 17); err != nil {
		t.Fatal(err)
	}
	gen, seq, ok, err := ReadManifest(path)
	if err != nil || !ok || gen != 3 || seq != 17 {
		t.Fatalf("round trip: gen=%d seq=%d ok=%v err=%v", gen, seq, ok, err)
	}

	_, _, ok, err = ReadManifest(filepath.Join(t.TempDir(), "absent"))
	if err != nil || ok {
		t.Fatalf("absent: ok=%v err=%v", ok, err)
	}

	data, _ := os.ReadFile(path)
	data[10] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadManifest(path); err == nil {
		t.Fatal("corrupt manifest read silently")
	}
}

// TestCheckpointRoundTrip: write → read is exact, segment table
// included; missing file is a clean "no checkpoint"; corruption is
// loud.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0000.ckpt")
	segs := []Segment{
		{Rng: domain.Range{Lo: -10, Hi: 9}, Vals: []domain.Value{5, -3, 5}},
		{Rng: domain.Range{Lo: 10, Hi: 99}, Vals: []domain.Value{}},
		{Rng: domain.Range{Lo: 100, Hi: 1 << 50}, Vals: []domain.Value{1 << 50, 100}},
	}
	if err := WriteCheckpoint(path, 99, segs); err != nil {
		t.Fatal(err)
	}
	seq, got, ok, err := ReadCheckpoint(path)
	if err != nil || !ok {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	if seq != 99 || !reflect.DeepEqual(got, segs) {
		t.Fatalf("round trip: seq=%d segs=%v", seq, got)
	}
	// Each segment's values are capped at its own length: growing one
	// never overwrites the next.
	if grown := append(got[0].Vals, 7); grown[3] != 7 || got[2].Vals[0] != 1<<50 {
		t.Fatalf("segment values share spare capacity: %v", got)
	}

	_, _, ok, err = ReadCheckpoint(filepath.Join(t.TempDir(), "absent.ckpt"))
	if err != nil || ok {
		t.Fatalf("absent: ok=%v err=%v", ok, err)
	}

	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadCheckpoint(path); err == nil {
		t.Fatal("corrupt checkpoint read silently")
	}

	// Empty-content checkpoint (all rows deleted) round-trips too.
	empty := []Segment{{Rng: domain.Range{Lo: 0, Hi: 9}, Vals: []domain.Value{}}}
	if err := WriteCheckpoint(path, 7, empty); err != nil {
		t.Fatal(err)
	}
	seq, got, ok, err = ReadCheckpoint(path)
	if err != nil || !ok || seq != 7 || !reflect.DeepEqual(got, empty) {
		t.Fatalf("empty checkpoint: seq=%d segs=%v ok=%v err=%v", seq, got, ok, err)
	}
}

// resealed returns data with its trailing CRC recomputed, so a test can
// reach the structural checks behind the CRC.
func resealed(data []byte) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], castagnoli))
	return out
}

// TestCheckpointRejectsBadTable: a file whose CRC is valid but whose
// count or boundary table is not is rejected, one case per check, and
// so is a version 1 file.
func TestCheckpointRejectsBadTable(t *testing.T) {
	segs := []Segment{
		{Rng: domain.Range{Lo: 0, Hi: 9}, Vals: []domain.Value{1, 2}},
		{Rng: domain.Range{Lo: 10, Hi: 19}, Vals: []domain.Value{15}},
	}
	good := appendCheckpoint(nil, 3, segs)
	if _, _, err := decodeCheckpoint(good); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	u64 := func(off int, v uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[off:], v) }
	}
	entry := func(i, field int) int { return ckptHeader + ckptEntry*i + 8*field }
	v1 := AppendFrame(nil, 1, nil) // any bytes behind the old magic
	v1 = append(append([]byte("SOCKPT01"), make([]byte, 16)...), v1...)
	for _, tc := range []struct {
		name string
		edit func([]byte)
		raw  []byte // used instead of an edit of good
		want string
	}{
		{name: "version 1", raw: v1, want: "version 1"},
		{name: "short", raw: good[:ckptHeader], want: "bad header"},
		{name: "crc", edit: func(b []byte) { b[len(b)-1] ^= 1 }, want: "crc"},
		{name: "count high", edit: u64(16, 4), want: "disagree"},
		{name: "count low", edit: u64(16, 2), want: "disagree"},
		{name: "no segments", edit: u64(24, 0), want: "disagree"},
		{name: "huge nseg", edit: u64(24, 1<<62), want: "disagree"},
		{name: "empty range", edit: u64(entry(1, 1), 5), want: "empty range"},
		{name: "not ascending", edit: func(b []byte) { u64(entry(1, 0), 0)(b); u64(entry(1, 1), 9)(b) }, want: "does not follow"},
		{name: "gap", edit: u64(entry(1, 0), 11), want: "does not follow"},
		{name: "overlap", edit: u64(entry(1, 0), 9), want: "does not follow"},
		{name: "counts short", edit: u64(entry(1, 2), 0), want: "sum to 2"},
		{name: "counts over", edit: u64(entry(1, 2), 2), want: "exceed"},
		{name: "value outside", edit: u64(entry(0, 2), 1), want: "outside"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.raw
			if data == nil {
				data = append([]byte(nil), good...)
				tc.edit(data)
				if tc.name != "crc" {
					data = resealed(data)
				}
			}
			_, _, err := decodeCheckpoint(data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
