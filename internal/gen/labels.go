package gen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
)

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

// writeLabels emits dir/labels.bin: one little-endian uint32 class id
// per node, label(v) = argmax_c w_c·(x_v − 0.5) over the classWeights
// hyperplanes, where x_v is exactly the feature vector writeFeatures
// emits for node v. Like the features, every label is a pure function
// of (seed, v, classes) — independent of write order. Returns the
// storage.ChecksumFile digest for the manifest.
func writeLabels(dir string, nodes int64, dim, classes int, seed uint64) (string, error) {
	if dim <= 0 {
		return "", fmt.Errorf("gen: labels need features (dim %d must be positive)", dim)
	}
	if classes < 2 {
		return "", fmt.Errorf("gen: numClasses %d must be at least 2", classes)
	}
	weights := classWeights(seed, classes, dim)
	path := filepath.Join(dir, storage.LabelsFile)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("gen: create label file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	vec := make([]float32, dim)
	var rec [storage.LabelBytes]byte
	for v := int64(0); v < nodes; v++ {
		nodeFeature(seed, v, vec)
		binary.LittleEndian.PutUint32(rec[:], nodeLabel(weights, vec))
		if _, err := bw.Write(rec[:]); err != nil {
			f.Close()
			return "", fmt.Errorf("gen: write label file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("gen: flush label file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("gen: close label file: %w", err)
	}
	return storage.ChecksumFile(path)
}
