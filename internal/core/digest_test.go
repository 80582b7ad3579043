package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"ringsampler/internal/sample"
)

// digestRef is Batch.Digest as it was first written: every word through
// hash/fnv's Write. The inlined fold must produce the same sums, or
// every recorded digest would move.
func digestRef(b *Batch) uint64 {
	h := fnv.New64a()
	var word [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(word[:4], v)
		h.Write(word[:4])
	}
	put64 := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	for li := range b.Layers {
		l := &b.Layers[li]
		put64(int64(li))
		for _, v := range l.Targets {
			put32(v)
		}
		for _, v := range l.Starts {
			put64(v)
		}
		for _, v := range l.Neighbors {
			put32(v)
		}
	}
	if b.FeatureDim > 0 || len(b.FeatNodes) > 0 || len(b.Features) > 0 {
		put64(int64(b.FeatureDim))
		put64(int64(len(b.FeatNodes)))
		for _, v := range b.FeatNodes {
			put32(v)
		}
		h.Write(b.Features)
	}
	return h.Sum64()
}

func TestDigestMatchesHashFNV(t *testing.T) {
	r := sample.NewRNG(3)
	words := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(r.Next())
		}
		return out
	}
	starts := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(r.Next() >> 1)
		}
		return out
	}
	feats := make([]byte, 7*12)
	for i := range feats {
		feats[i] = byte(r.Next())
	}
	for name, b := range map[string]*Batch{
		"empty":       {},
		"one-layer":   {Layers: []Layer{{Targets: words(5), Starts: starts(6), Neighbors: words(40)}}},
		"three-layer": {Layers: []Layer{{Targets: words(3), Starts: starts(4), Neighbors: words(9)}, {}, {Targets: words(9), Starts: starts(10), Neighbors: words(90)}}},
		"features":    {Layers: []Layer{{Targets: words(2), Starts: starts(3), Neighbors: words(5)}}, FeatNodes: words(7), Features: feats, FeatureDim: 3},
		"dim-only":    {FeatureDim: 4},
	} {
		if got, want := b.Digest(), digestRef(b); got != want {
			t.Errorf("%s: Digest %#x, hash/fnv reference %#x", name, got, want)
		}
	}
}

// BenchmarkBatchDigest times Digest on a batch shaped like train_feat's:
// fanouts {10,10} over 512 targets, and 4,200 feature rows of 128 B.
// SetBytes is the feature payload, which the fold spends most of its
// time on.
func BenchmarkBatchDigest(b *testing.B) {
	r := sample.NewRNG(5)
	words := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(r.Next() % 1_000_000)
		}
		return out
	}
	layer := func(targets, fanout int) Layer {
		starts := make([]int64, targets+1)
		for i := range starts {
			starts[i] = int64(i * fanout)
		}
		return Layer{Targets: words(targets), Starts: starts, Neighbors: words(targets * fanout)}
	}
	const rows, rowBytes = 4200, 128
	batch := &Batch{
		Layers:     []Layer{layer(512, 10), layer(3800, 10)},
		FeatNodes:  words(rows),
		Features:   make([]byte, rows*rowBytes),
		FeatureDim: rowBytes / 4,
	}
	for i := range batch.Features {
		batch.Features[i] = byte(r.Next())
	}
	b.SetBytes(int64(len(batch.Features)))
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= batch.Digest()
	}
	_ = sink
}
