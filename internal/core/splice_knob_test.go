package core

import (
	"math/rand"
	"testing"

	"selforg/internal/compress"
	"selforg/internal/domain"
	"selforg/internal/model"
)

// TestEncodedSpliceEquivalence drives identical mixed workloads (range
// scans triggering replica materialization, inserts and deletes
// triggering merge-backs) over two compressed Replicators — one with the
// encoded-splice fast paths, one forced onto the decode → re-encode
// path via its in-package knob — and asserts identical results and layout.
// The splice paths are pure plumbing: they may only change how a
// replica's bytes are produced, never which values or runs exist.
func TestEncodedSpliceEquivalence(t *testing.T) {
	extent := domain.NewRange(0, 9999)
	vals := compressColumn(4000)
	for _, mode := range []compress.Mode{compress.Auto, compress.ForceRLE} {
		run := func(disable bool) ([]domain.Value, string) {
			r := NewReplicator(extent, append([]domain.Value(nil), vals...), 4, model.NewAPM(256, 2048), nil)
			r.noEncodedSplice = disable
			r.SetCompression(mode)
			r.SetDeltaPolicy(512, -1) // small budget: merge-backs fire often
			qrng := rand.New(rand.NewSource(99))
			for i := 0; i < 150; i++ {
				if i%3 == 1 {
					if _, err := r.Insert(qrng.Int63n(10000)); err != nil {
						t.Fatal(err)
					}
				}
				if i%7 == 4 {
					if _, _, err := r.Delete(vals[qrng.Intn(len(vals))]); err != nil {
						t.Fatal(err)
					}
				}
				lo := qrng.Int63n(9000)
				r.Select(domain.Range{Lo: lo, Hi: lo + qrng.Int63n(900) + 1})
			}
			res, _ := r.Select(extent)
			return res, r.Layout()
		}
		fastRes, fastLayout := run(false)
		slowRes, slowLayout := run(true)
		if len(fastRes) != len(slowRes) {
			t.Fatalf("%v: %d vs %d values", mode, len(fastRes), len(slowRes))
		}
		for i := range fastRes {
			if fastRes[i] != slowRes[i] {
				t.Fatalf("%v: value %d differs: %d vs %d", mode, i, fastRes[i], slowRes[i])
			}
		}
		if fastLayout != slowLayout {
			t.Fatalf("%v layouts diverged:\n  splice %s\n  decode %s", mode, fastLayout, slowLayout)
		}
	}
}
