// Package storage implements the on-disk dataset layout of paper Fig 2:
// a flat little-endian u32 edge file grouped by source node
// (edges.dat), an offset index of numNodes+1 little-endian int64 entry
// indices (offsets.idx) so offsets[x]..offsets[x+1] delimit node x's
// neighbors, and a JSON manifest. The offset index is the only
// edge-file metadata the sampler keeps in memory — node-proportional,
// never edge-proportional. The package owns the whole format: Writer
// writes every dataset file, including features.bin and labels.bin,
// and Open verifies every one.
package storage

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// File names and record sizes of the on-disk layout.
const (
	EdgesFile    = "edges.dat"
	OffsetsFile  = "offsets.idx"
	ManifestFile = "manifest.json"

	EntryBytes  = 4 // one u32 neighbor ID in edges.dat
	OffsetBytes = 8 // one int64 entry index in offsets.idx
)

// Writer builds a dataset directory: the edge file from a source-sorted
// edge stream, the offset index, the optional feature and label files
// and the manifest. It holds only the offset index in memory. After any
// error it is unusable and holds no open file.
type Writer struct {
	dir      string
	name     string
	numNodes int64
	f        *os.File
	bw       *bufio.Writer
	offsets  []int64
	lastSrc  int64 // highest source seen; -1 before the first edge
	count    int64

	// Feature metadata (WriteFeatures), folded into the manifest by
	// Finish. Zero values mean an edge-only dataset.
	featDim      int
	featBytes    int64
	featChecksum string

	// Label metadata (WriteLabels). Zero values mean an unlabeled
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
		return w.abort(fmt.Errorf("storage: edge (%d,%d) outside node range [0,%d)", src, dst, w.numNodes))
	}
	if s < w.lastSrc {
		return w.abort(fmt.Errorf("storage: edges out of order: source %d after %d", src, w.lastSrc))
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
		return w.abort(fmt.Errorf("storage: write edge: %w", err))
	}
	w.count++
	return nil
}

// WriteFeatures writes features.bin: node v's dim-wide f32 vector, as
// vector fills it, at byte v*dim*FeatureElemBytes. Finish records the
// dim, size and checksum in the manifest. A dim Open would refuse is
// refused here, before the file is created.
func (w *Writer) WriteFeatures(dim int, vector func(v int64, vec []float32)) error {
	if dim <= 0 || dim > maxFeatureDim {
		return w.abort(fmt.Errorf("storage: feature dim %d outside [1, %d]", dim, maxFeatureDim))
	}
	vec := make([]float32, dim)
	sum, err := w.writeRecords(FeaturesFile, w.numNodes, dim*FeatureElemBytes, func(v int64, rec []byte) {
		vector(v, vec)
		for d, x := range vec {
			binary.LittleEndian.PutUint32(rec[d*FeatureElemBytes:], math.Float32bits(x))
		}
	})
	if err != nil {
		return w.abort(err)
	}
	w.featDim, w.featBytes, w.featChecksum = dim, w.numNodes*int64(dim)*FeatureElemBytes, sum
	return nil
}

// WriteLabels writes labels.bin: node v's class id, label(v), as a
// little-endian uint32 at byte v*LabelBytes. Finish records the class
// count and checksum in the manifest. A class count or a label Open
// would refuse is refused here.
func (w *Writer) WriteLabels(classes int, label func(v int64) uint32) error {
	if classes < 2 || classes > maxNumClasses {
		return w.abort(fmt.Errorf("storage: numClasses %d outside [2, %d]", classes, maxNumClasses))
	}
	var bad error
	sum, err := w.writeRecords(LabelsFile, w.numNodes, LabelBytes, func(v int64, rec []byte) {
		c := label(v)
		if c >= uint32(classes) && bad == nil {
			bad = fmt.Errorf("storage: node %d has label %d, outside [0, %d)", v, c, classes)
		}
		binary.LittleEndian.PutUint32(rec, c)
	})
	if err := cmp.Or(err, bad); err != nil {
		return w.abort(err)
	}
	w.numClasses, w.labelChecksum = classes, sum
	return nil
}

// writeRecords creates the dataset file name and writes n records of
// size bytes, record v filled by put, through one 64 KiB buffer that
// feeds both the file and a CRC-32C. It returns the sum in the
// manifest's form, so no file is read back to be checksummed.
func (w *Writer) writeRecords(name string, n int64, size int, put func(v int64, rec []byte)) (string, error) {
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return "", fmt.Errorf("storage: create %s: %w", name, err)
	}
	crc := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<16)
	rec := make([]byte, size)
	for v := int64(0); v < n; v++ {
		put(v, rec)
		if _, err := bw.Write(rec); err != nil {
			f.Close()
			return "", fmt.Errorf("storage: write %s: %w", name, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("storage: write %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("storage: close %s: %w", name, err)
	}
	return formatChecksum(crc.Sum32()), nil
}

// abort closes the edge file and returns err.
func (w *Writer) abort(err error) error {
	w.f.Close()
	return err
}

// Finish flushes the edge file, writes the offset index and manifest,
// and returns the manifest. The writer is unusable afterwards.
func (w *Writer) Finish() (Manifest, error) {
	for v := w.lastSrc + 1; v <= w.numNodes; v++ {
		w.offsets[v] = w.count
	}
	if err := w.bw.Flush(); err != nil {
		return Manifest{}, w.abort(fmt.Errorf("storage: flush edge file: %w", err))
	}
	if err := w.f.Close(); err != nil {
		return Manifest{}, fmt.Errorf("storage: close edge file: %w", err)
	}
	if _, err := w.writeRecords(OffsetsFile, int64(len(w.offsets)), OffsetBytes, func(v int64, rec []byte) {
		binary.LittleEndian.PutUint64(rec, uint64(w.offsets[v]))
	}); err != nil {
		return Manifest{}, err
	}
	man := Manifest{
		Version:       ManifestVersion,
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
	return man, man.Save(filepath.Join(w.dir, ManifestFile))
}
