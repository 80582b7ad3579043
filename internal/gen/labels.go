package gen

import "ringsampler/internal/sample"

// labelSalt decorrelates the per-class label-weight RNG streams from
// both the edge-generation and the feature streams that mix the same
// seed.
const labelSalt = 0x1abe1b17

// classWeights derives the synthetic labeling hyperplanes: one
// dim-wide weight vector per class, entries uniform in [-1, 1), class
// c's vector a pure function of (seed, c). The label task is then
// linearly realizable from the features — a trained linear (or deeper)
// model can actually fit it, which is what makes epochs-to-accuracy a
// meaningful benchmark axis rather than noise-fitting.
func classWeights(seed uint64, classes, dim int) [][]float32 {
	w := make([][]float32, classes)
	for c := range w {
		rng := sample.NewRNG(sample.Mix(seed^labelSalt, uint64(c)))
		w[c] = make([]float32, dim)
		for d := range w[c] {
			w[c][d] = float32(rng.Float64()*2 - 1)
		}
	}
	return w
}

// nodeLabel scores vec (one node's feature vector) against every class
// hyperplane and returns the argmax class, lowest class winning ties.
// Features are centered by 0.5 (they are uniform in [0,1)) so the
// scores straddle zero and the classes come out roughly balanced.
func nodeLabel(weights [][]float32, vec []float32) uint32 {
	best, bestScore := uint32(0), float64(0)
	for c, w := range weights {
		score := 0.0
		for d, x := range vec {
			score += float64(w[d]) * (float64(x) - 0.5)
		}
		if c == 0 || score > bestScore {
			best, bestScore = uint32(c), score
		}
	}
	return best
}
