package storage

import (
	"fmt"
	"os"
	"path/filepath"
)

// Feature-store layout (DESIGN.md §10): features.bin is a flat array of
// NumNodes fixed-stride records, record v at byte v*stride, where
// stride = FeatureDim * FeatureElemBytes. Like the edge file it is raw
// little-endian bytes with no framing — the offset IS the index — so
// the same coalesced-run ring machinery reads both.
const (
	FeaturesFile = "features.bin"

	FeatureElemBytes = 4 // one little-endian f32 feature value

	// maxFeatureDim bounds the per-node vector width accepted at open.
	// Generous for any real embedding table, small enough that
	// NumNodes*stride arithmetic cannot overflow int64 for any node
	// count the manifest accepts.
	maxFeatureDim = 1 << 20
)

// validateFeatures checks the manifest's feature fields against the
// directory contents with the same strictness as the edge-file checks:
// a featureful dataset whose file is truncated, whose stride disagrees
// with the manifest, or whose bytes fail the checksum is rejected at
// open rather than surfacing as short reads or silently wrong vectors
// mid-epoch. Returns the feature file path for a featureful dataset, or
// "" for a valid edge-only one. [lo, hi) is the owned node range — the
// local file holds exactly those nodes' records ([0, NumNodes) when
// unsharded, so the sizes reduce to the historical whole-file checks).
func validateFeatures(dir string, man Manifest, lo, hi int64) (string, error) {
	if man.FeatureDim < 0 {
		return "", fmt.Errorf("storage: manifest %s has negative featureDim %d", dir, man.FeatureDim)
	}
	if man.FeatureDim == 0 {
		if man.FeatBytes != 0 || man.FeatChecksum != "" {
			return "", fmt.Errorf("storage: manifest %s has featureDim 0 but featBytes %d / checksum %q — inconsistent feature fields",
				dir, man.FeatBytes, man.FeatChecksum)
		}
		return "", nil
	}
	if man.FeatureDim > maxFeatureDim {
		return "", fmt.Errorf("storage: manifest %s featureDim %d exceeds limit %d", dir, man.FeatureDim, maxFeatureDim)
	}
	stride := int64(man.FeatureDim) * FeatureElemBytes
	want := (hi - lo) * stride
	if man.FeatBytes != want {
		return "", fmt.Errorf("storage: manifest %s featBytes %d != ownedNodes*dim*%d = %d (stride mismatch)",
			dir, man.FeatBytes, FeatureElemBytes, want)
	}
	if man.FeatChecksum == "" {
		return "", fmt.Errorf("storage: manifest %s declares %d feature dims but no featChecksum", dir, man.FeatureDim)
	}
	path := filepath.Join(dir, FeaturesFile)
	fi, err := os.Stat(path)
	if err != nil {
		return "", fmt.Errorf("storage: stat feature file: %w", err)
	}
	if fi.Size() != want {
		return "", fmt.Errorf("storage: feature file %s is %d bytes, manifest expects %d (truncated capture?)", path, fi.Size(), want)
	}
	sum, err := ChecksumFile(path)
	if err != nil {
		return "", err
	}
	if sum != man.FeatChecksum {
		return "", fmt.Errorf("storage: feature file %s checksum %s != manifest %s (corrupt capture?)", path, sum, man.FeatChecksum)
	}
	return path, nil
}

// HasFeatures reports whether the dataset carries a feature file.
func (d *Dataset) HasFeatures() bool { return d.featF != nil }

// FeatureDim returns the per-node feature vector width (f32 values), or
// 0 for an edge-only dataset.
func (d *Dataset) FeatureDim() int { return d.man.FeatureDim }

// FeatureStride returns the on-disk byte stride of one node's feature
// record (FeatureDim * FeatureElemBytes); node v's vector starts at
// byte v*stride of features.bin. 0 for an edge-only dataset.
func (d *Dataset) FeatureStride() int64 {
	return int64(d.man.FeatureDim) * FeatureElemBytes
}

// FeatureFile exposes the feature file for ring backends that read it
// directly (nil for an edge-only dataset). When FeatureAlign() > 0 the
// handle is O_DIRECT and ring reads through it must use aligned
// offsets, lengths, and memory.
func (d *Dataset) FeatureFile() *os.File { return d.featF }

// FeatureAlign returns the O_DIRECT transfer granularity of the feature
// file handle, or 0 when the handle is buffered (or absent).
func (d *Dataset) FeatureAlign() int { return d.featAlign }
