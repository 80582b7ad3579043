package gen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
)

// featureSalt decorrelates the per-node feature RNG streams from the
// edge-generation streams that mix the same seed.
const featureSalt = 0xfea7f11e

// nodeFeature fills vec with node v's feature vector: len(vec) f32
// values in [0,1) drawn from a node-local RNG seeded
// Mix(seed^featureSalt, v). Node-local seeding makes every vector a
// pure function of (seed, v) — independent of write order — which is
// what the conformance suite's byte-identity assertions anchor on, and
// what lets the label generator rederive a node's vector without
// reading features.bin.
func nodeFeature(seed uint64, v int64, vec []float32) {
	rng := sample.NewRNG(sample.Mix(seed^featureSalt, uint64(v)))
	for d := range vec {
		// Top 24 bits of the draw -> f32 in [0,1) with full mantissa
		// coverage.
		vec[d] = float32(rng.Next()>>40) / (1 << 24)
	}
}

// writeFeatures emits dir/features.bin: one dim-wide f32 vector per
// node, values from nodeFeature. Returns the byte count and the
// storage.ChecksumFile digest for the manifest.
func writeFeatures(dir string, nodes int64, dim int, seed uint64) (int64, string, error) {
	if dim <= 0 {
		return 0, "", fmt.Errorf("gen: feature dim %d must be positive", dim)
	}
	path := filepath.Join(dir, storage.FeaturesFile)
	f, err := os.Create(path)
	if err != nil {
		return 0, "", fmt.Errorf("gen: create feature file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	vec := make([]float32, dim)
	var rec [storage.FeatureElemBytes]byte
	for v := int64(0); v < nodes; v++ {
		nodeFeature(seed, v, vec)
		for _, val := range vec {
			binary.LittleEndian.PutUint32(rec[:], math.Float32bits(val))
			if _, err := bw.Write(rec[:]); err != nil {
				f.Close()
				return 0, "", fmt.Errorf("gen: write feature file: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, "", fmt.Errorf("gen: flush feature file: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, "", fmt.Errorf("gen: close feature file: %w", err)
	}
	sum, err := storage.ChecksumFile(path)
	if err != nil {
		return 0, "", err
	}
	return nodes * int64(dim) * storage.FeatureElemBytes, sum, nil
}
