package storage

import (
	"fmt"
	"hash/crc32"
	"io"
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

// castagnoli is the CRC-32C polynomial table. CRC-32C is the on-disk
// format's one integrity checksum (DESIGN.md §10): hash/crc32 runs it
// on the SSE4.2 / ARMv8 CRC instructions, so checking a file costs
// about as much as reading it, and every error burst of up to 32 bits
// changes the sum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// formatChecksum renders a CRC-32C as the fixed-width 8-hex-digit form
// the manifest records.
func formatChecksum(sum uint32) string { return fmt.Sprintf("%08x", sum) }

// ChecksumFile streams path through CRC-32C and returns the fixed-width
// hex digest recorded in (and verified against) the manifest's
// featChecksum and labelChecksum fields.
func ChecksumFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("storage: open %s for checksum: %w", path, err)
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("storage: checksum %s: %w", path, err)
	}
	return formatChecksum(h.Sum32()), nil
}

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

// FeatureReadAt reads raw feature-file bytes at the given GLOBAL byte
// offset (node id * stride over the whole graph) — the ringless access
// path the feature-cache builder uses, with the same aligned bounce
// handling as ReadAt when the handle is O_DIRECT. On a shard dataset
// the offset is translated into the local slice of owned nodes'
// records, mirroring ReadAt.
func (d *Dataset) FeatureReadAt(p []byte, off int64) (int, error) {
	if d.featF == nil {
		return 0, fmt.Errorf("storage: dataset %s has no feature file", d.dir)
	}
	return readAtMaybeDirect(d.featF, d.featAlign, p, off-d.shardLo*d.FeatureStride())
}
