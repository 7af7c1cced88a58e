package wal

import (
	"bytes"
	"reflect"
	"testing"

	"selforg/internal/delta"
	"selforg/internal/domain"
)

// FuzzWALReplay drives the frame decoder over arbitrary byte streams —
// truncated, bit-flipped, duplicated, concatenated frames and pure
// garbage — and checks the replay invariants the recovery path depends
// on:
//
//  1. Decode never panics and never reads past the buffer.
//  2. The valid prefix is well-formed: decoding data[:valid] yields the
//     same batches and the same valid length (idempotent truncation —
//     what Open leaves on disk after a torn-tail cut must replay
//     identically on the next crash).
//  3. Re-encoding the decoded batches reproduces data[:valid] byte for
//     byte (the codec is canonical).
func FuzzWALReplay(f *testing.F) {
	// Seeds: empty, a single batch, several batches, a torn tail, a
	// duplicated frame, and high-entropy garbage.
	one := AppendFrame(nil, 1, []delta.Op{{Kind: delta.OpInsert, V: 7}})
	mixed := AppendFrame(nil, 3, []delta.Op{
		{Kind: delta.OpInsert, V: 1},
		{Kind: delta.OpDelete, V: 2},
		{Kind: delta.OpUpdate, V: 3, New: 4},
	})
	multi := AppendFrame(append([]byte(nil), one...), 2, []delta.Op{{Kind: delta.OpDelete, V: -9}})
	f.Add([]byte{})
	f.Add(one)
	f.Add(mixed)
	f.Add(multi)
	f.Add(multi[:len(multi)-3])                        // torn tail
	f.Add(append(append([]byte(nil), one...), one...)) // duplicated frame
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00garbage"))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		var first []Batch
		valid, err := Decode(data, func(b Batch) error {
			first = append(first, b)
			return nil
		})
		if err != nil {
			t.Fatalf("decode with non-failing fn returned error: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d out of [0, %d]", valid, len(data))
		}
		var second []Batch
		valid2, err := Decode(data[:valid], func(b Batch) error {
			second = append(second, b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if valid2 != valid {
			t.Fatalf("truncated prefix re-decodes to %d, want %d", valid2, valid)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("replay diverged: %+v vs %+v", first, second)
		}
		var re []byte
		for _, b := range first {
			re = AppendFrame(re, b.Seq, b.Ops)
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("re-encode of %d batches is not canonical", len(first))
		}
	})
}

// FuzzCheckpointRead drives the checkpoint decoder over arbitrary bytes
// and checks what recovery depends on:
//
//  1. Decode never panics.
//  2. Whatever it accepts tiles one range — segments ascending and
//     adjacent, every value inside its segment — and re-encodes byte for
//     byte (the format is canonical).
//  3. A valid file built from the input round-trips, and the same file
//     with a torn tail or one flipped bit is rejected.
//
// The committed seeds (testdata/fuzz/FuzzCheckpointRead) are a valid
// two-segment file, its torn tail and a bit flip in its segment table.
func FuzzCheckpointRead(f *testing.F) {
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if seq, segs, err := decodeCheckpoint(data); err == nil {
			for i, sg := range segs {
				if sg.Rng.IsEmpty() || i > 0 && (segs[i-1].Rng.Hi >= sg.Rng.Lo || !segs[i-1].Rng.Adjacent(sg.Rng)) {
					t.Fatalf("accepted segment %d %v after %v", i, sg.Rng, segs[max(i-1, 0)].Rng)
				}
				for _, v := range sg.Vals {
					if !sg.Rng.Contains(v) {
						t.Fatalf("accepted value %d outside segment %v", v, sg.Rng)
					}
				}
			}
			if !bytes.Equal(appendCheckpoint(nil, seq, segs), data) {
				t.Fatal("accepted file does not re-encode byte for byte")
			}
		}

		segs := segmentsOf(data)
		file := appendCheckpoint(nil, uint64(len(data)), segs)
		seq, got, err := decodeCheckpoint(file)
		if err != nil || seq != uint64(len(data)) || !reflect.DeepEqual(got, segs) {
			t.Fatalf("valid file: seq=%d err=%v\n got %v\nwant %v", seq, err, got, segs)
		}
		if _, _, err := decodeCheckpoint(file[:len(file)-1-len(data)%(len(file)-1)]); err == nil {
			t.Fatal("torn file accepted")
		}
		bit := len(data) * 7919 % (8 * len(file))
		file[bit/8] ^= 1 << (bit % 8)
		if _, _, err := decodeCheckpoint(file); err == nil {
			t.Fatalf("file with bit %d flipped accepted", bit)
		}
	})
}

// segmentsOf builds a valid segment table from arbitrary bytes: each
// byte is a value in [-128, 127], the first byte picks one to four
// equal segments over that range, and each value goes to its segment in
// input order.
func segmentsOf(data []byte) []Segment {
	n := 1
	if len(data) > 0 {
		n += int(data[0] % 4)
	}
	segs := make([]Segment, n)
	for i := range segs {
		segs[i] = Segment{Rng: domain.Range{Lo: domain.Value(-128 + 256*i/n), Hi: domain.Value(-128+256*(i+1)/n) - 1}, Vals: []domain.Value{}}
	}
	for _, b := range data {
		v := domain.Value(int8(b))
		i := 0
		for !segs[i].Rng.Contains(v) {
			i++
		}
		segs[i].Vals = append(segs[i].Vals, v)
	}
	for i := range segs {
		segs[i].Vals = segs[i].Vals[:len(segs[i].Vals):len(segs[i].Vals)]
	}
	return segs
}
