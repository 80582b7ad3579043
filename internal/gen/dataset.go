package gen

import (
	"fmt"
	"os"
	"path/filepath"

	"ringsampler/internal/graph"
	"ringsampler/internal/storage"
)

// Options selects the optional dataset components Generate can emit
// beyond the edge file and offset index.
type Options struct {
	// FeatureDim, when positive, emits features.bin: one FeatureDim-wide
	// f32 vector per node, deterministic per (seed, node), with its size
	// and CRC-32C checksum recorded in the manifest.
	FeatureDim int

	// NumClasses, when ≥ 2, emits labels.bin: one uint32 class id per
	// node derived from the node's feature vector (so the labeling is
	// linearly realizable — see writeLabels), with the class count and
	// CRC-32C checksum recorded in the manifest. Requires FeatureDim > 0.
	NumClasses int
}

// Generate builds a complete on-disk dataset in dir: stream a synthetic
// graph (kind "rmat" or "uniform"), externally sort it by source, and
// write the edge file + offset index + manifest. The whole pipeline is
// streaming, so graphs larger than memory generate fine. Deterministic
// for a fixed (kind, nodes, edges, seed).
func Generate(dir, name, kind string, nodes, edges int64, seed uint64) (graph.Manifest, error) {
	return GenerateWith(dir, name, kind, nodes, edges, seed, Options{})
}

// GenerateWith is Generate with explicit component options (e.g. a node
// feature file).
func GenerateWith(dir, name, kind string, nodes, edges int64, seed uint64, o Options) (graph.Manifest, error) {
	var man graph.Manifest
	if o.FeatureDim < 0 {
		return man, fmt.Errorf("gen: feature dim %d must be non-negative", o.FeatureDim)
	}
	if o.NumClasses != 0 {
		if o.NumClasses < 2 {
			return man, fmt.Errorf("gen: numClasses %d must be 0 (no labels) or at least 2", o.NumClasses)
		}
		if o.FeatureDim == 0 {
			return man, fmt.Errorf("gen: labels need features (numClasses %d with featureDim 0)", o.NumClasses)
		}
	}
	tmpDir := filepath.Join(dir, ".extsort")
	sorter, err := graph.NewExternalSorter(tmpDir, 1<<20)
	if err != nil {
		return man, err
	}
	defer os.RemoveAll(tmpDir)

	var addErr error
	add := func(src, dst uint32) {
		if addErr == nil {
			addErr = sorter.Add(graph.Edge{Src: src, Dst: dst})
		}
	}
	switch kind {
	case "rmat":
		err = RMAT(nodes, edges, seed, RMATParams, add)
	case "uniform":
		err = Uniform(nodes, edges, seed, add)
	default:
		return man, fmt.Errorf("gen: unknown graph kind %q (want rmat or uniform)", kind)
	}
	if err != nil {
		return man, err
	}
	if addErr != nil {
		return man, addErr
	}

	w, err := storage.NewWriter(dir, name, nodes)
	if err != nil {
		return man, err
	}
	if err := sorter.Merge(func(e graph.Edge) error {
		return w.Add(e.Src, e.Dst)
	}); err != nil {
		return man, err
	}
	if o.FeatureDim > 0 {
		featBytes, sum, err := writeFeatures(dir, nodes, o.FeatureDim, seed)
		if err != nil {
			return man, err
		}
		if err := w.SetFeatures(o.FeatureDim, featBytes, sum); err != nil {
			return man, err
		}
	}
	if o.NumClasses >= 2 {
		sum, err := writeLabels(dir, nodes, o.FeatureDim, o.NumClasses, seed)
		if err != nil {
			return man, err
		}
		if err := w.SetLabels(o.NumClasses, sum); err != nil {
			return man, err
		}
	}
	return w.Finish()
}
