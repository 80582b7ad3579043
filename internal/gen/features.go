package gen

import "ringsampler/internal/sample"

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
