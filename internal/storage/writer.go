// Package storage implements the on-disk dataset layout of paper Fig 2:
// a flat little-endian u32 edge file grouped by source node
// (edges.dat), an offset index of numNodes+1 little-endian int64 entry
// indices (offsets.idx) so offsets[x]..offsets[x+1] delimit node x's
// neighbors, and a JSON manifest. The offset index is the only
// edge-file metadata the sampler keeps in memory — node-proportional,
// never edge-proportional.
package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"ringsampler/internal/graph"
)

// File names and record sizes of the on-disk layout.
const (
	EdgesFile    = "edges.dat"
	OffsetsFile  = "offsets.idx"
	ManifestFile = "manifest.json"

	EntryBytes  = 4 // one u32 neighbor ID in edges.dat
	OffsetBytes = 8 // one int64 entry index in offsets.idx
)

// Writer builds a dataset directory from a source-sorted edge stream.
// It holds only the offset index (node-proportional) in memory.
type Writer struct {
	dir      string
	name     string
	numNodes int64
	f        *os.File
	bw       *bufio.Writer
	offsets  []int64
	lastSrc  int64 // highest source seen; -1 before the first edge
	count    int64

	// Staged feature metadata (SetFeatures), folded into the manifest by
	// Finish. Zero values mean an edge-only dataset.
	featDim      int
	featBytes    int64
	featChecksum string

	// Staged label metadata (SetLabels). Zero values mean an unlabeled
	// dataset.
	numClasses    int
	labelChecksum string
}

// NewWriter creates dir (if needed) and opens the edge file for a
// graph with numNodes nodes. Edges must be Added in non-decreasing
// source order (the external sorter guarantees this).
func NewWriter(dir, name string, numNodes int64) (*Writer, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("storage: numNodes must be positive, got %d", numNodes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dataset dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, EdgesFile))
	if err != nil {
		return nil, fmt.Errorf("storage: create edge file: %w", err)
	}
	return &Writer{
		dir:      dir,
		name:     name,
		numNodes: numNodes,
		f:        f,
		bw:       bufio.NewWriterSize(f, 1<<16),
		offsets:  make([]int64, numNodes+1),
		lastSrc:  -1,
	}, nil
}

// Add appends one edge. Sources must arrive sorted.
func (w *Writer) Add(src, dst uint32) error {
	s := int64(src)
	if s >= w.numNodes || int64(dst) >= w.numNodes {
		return fmt.Errorf("storage: edge (%d,%d) outside node range [0,%d)", src, dst, w.numNodes)
	}
	if s < w.lastSrc {
		return fmt.Errorf("storage: edges out of order: source %d after %d", src, w.lastSrc)
	}
	if s > w.lastSrc {
		// Close the offset ranges of every node in (lastSrc, s].
		for v := w.lastSrc + 1; v <= s; v++ {
			w.offsets[v] = w.count
		}
		w.lastSrc = s
	}
	var rec [EntryBytes]byte
	binary.LittleEndian.PutUint32(rec[:], dst)
	if _, err := w.bw.Write(rec[:]); err != nil {
		return fmt.Errorf("storage: write edge: %w", err)
	}
	w.count++
	return nil
}

// SetFeatures stages the feature-file metadata Finish records in the
// manifest. The caller is responsible for having written
// dir/features.bin with exactly featBytes = numNodes*dim*
// FeatureElemBytes bytes whose ChecksumFile digest (CRC-32C) is
// checksum — Open re-verifies all three.
func (w *Writer) SetFeatures(dim int, featBytes int64, checksum string) error {
	if dim <= 0 {
		return fmt.Errorf("storage: feature dim %d must be positive", dim)
	}
	if want := w.numNodes * int64(dim) * FeatureElemBytes; featBytes != want {
		return fmt.Errorf("storage: feature bytes %d != numNodes*dim*%d = %d", featBytes, FeatureElemBytes, want)
	}
	w.featDim = dim
	w.featBytes = featBytes
	w.featChecksum = checksum
	return nil
}

// SetLabels stages the label-file metadata Finish records in the
// manifest. The caller is responsible for having written dir/labels.bin
// with numNodes little-endian uint32 class ids, all in
// [0, numClasses), whose ChecksumFile digest (CRC-32C) is checksum —
// Open re-verifies every record.
func (w *Writer) SetLabels(numClasses int, checksum string) error {
	if numClasses < 2 {
		return fmt.Errorf("storage: numClasses %d must be at least 2", numClasses)
	}
	if numClasses > maxNumClasses {
		return fmt.Errorf("storage: numClasses %d exceeds limit %d", numClasses, maxNumClasses)
	}
	w.numClasses = numClasses
	w.labelChecksum = checksum
	return nil
}

// Finish flushes the edge file, writes the offset index and manifest,
// and returns the manifest. The writer is unusable afterwards.
func (w *Writer) Finish() (graph.Manifest, error) {
	var man graph.Manifest
	for v := w.lastSrc + 1; v <= w.numNodes; v++ {
		w.offsets[v] = w.count
	}
	if err := w.bw.Flush(); err != nil {
		return man, fmt.Errorf("storage: flush edge file: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return man, fmt.Errorf("storage: close edge file: %w", err)
	}
	of, err := os.Create(filepath.Join(w.dir, OffsetsFile))
	if err != nil {
		return man, fmt.Errorf("storage: create offset index: %w", err)
	}
	ow := bufio.NewWriterSize(of, 1<<16)
	var rec [OffsetBytes]byte
	for _, o := range w.offsets {
		binary.LittleEndian.PutUint64(rec[:], uint64(o))
		if _, err := ow.Write(rec[:]); err != nil {
			of.Close()
			return man, fmt.Errorf("storage: write offset index: %w", err)
		}
	}
	if err := ow.Flush(); err != nil {
		of.Close()
		return man, fmt.Errorf("storage: flush offset index: %w", err)
	}
	if err := of.Close(); err != nil {
		return man, fmt.Errorf("storage: close offset index: %w", err)
	}
	man = graph.Manifest{
		Version:       graph.ManifestVersion,
		Name:          w.name,
		NumNodes:      w.numNodes,
		NumEdges:      w.count,
		BinBytes:      w.count * EntryBytes,
		FeatureDim:    w.featDim,
		FeatBytes:     w.featBytes,
		FeatChecksum:  w.featChecksum,
		NumClasses:    w.numClasses,
		LabelChecksum: w.labelChecksum,
	}
	if err := man.Save(filepath.Join(w.dir, ManifestFile)); err != nil {
		return man, err
	}
	return man, nil
}
