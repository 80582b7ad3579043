package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"unsafe"
)

// Dataset is an opened on-disk graph: the manifest, the in-memory
// offset index, and the edge file handle the sampler reads through.
// The edge data itself stays on disk.
//
// Dataset is safe for concurrent read use: the offset index is
// immutable after Open and reads go through (*os.File).ReadAt.
type Dataset struct {
	dir     string
	man     Manifest
	offsets []int64
	f       *os.File

	// shardLo/shardHi is the owned node range [lo, hi); [0, NumNodes)
	// for an unsharded dataset. entryBase is the global entry index of
	// the first entry present in the local edge file (offsets[shardLo]),
	// so local byte offset = (globalEntry - entryBase) * EntryBytes.
	shardLo   int64
	shardHi   int64
	entryBase int64

	// directAlign is the O_DIRECT transfer granularity (offset, length,
	// and memory must all be multiples of it); 0 means the file is open
	// buffered and reads have no alignment constraint.
	directAlign int
	// directErr records why a requested O_DIRECT open fell back to
	// buffered, so callers can log the downgrade instead of silently
	// benchmarking the page cache.
	directErr error

	// featF is the feature file handle (nil for edge-only datasets);
	// featAlign is its O_DIRECT granularity, probed independently of the
	// edge file's.
	featF     *os.File
	featAlign int

	// labelPath is the validated label file (empty for unlabeled
	// datasets); the decoded array is lazily loaded by Labels.
	labelPath  string
	labelsOnce sync.Once
	labels     []uint32
	labelsErr  error
}

// OpenOptions configures how the edge file is opened.
type OpenOptions struct {
	// Direct opens the edge file with O_DIRECT, bypassing the page cache
	// so device reads are measured (and counted) honestly. The required
	// alignment is probed empirically (512 then 4096); if O_DIRECT or
	// the probe fails, Open falls back to a buffered handle and records
	// the reason in DirectFallback.
	Direct bool
}

// Open validates and opens the dataset in dir with a buffered edge-file
// handle. Shorthand for OpenWith(dir, OpenOptions{}).
func Open(dir string) (*Dataset, error) {
	return OpenWith(dir, OpenOptions{})
}

// OpenWith validates and opens the dataset in dir. Validation is strict —
// a truncated or inconsistent directory is rejected here rather than
// surfacing as short reads mid-epoch.
//
// After the manifest, the three validations that read whole files run
// concurrently: the offset index with the edge-file size, the feature
// file and the label file, each checksummed on up to GOMAXPROCS cores.
// Open waits for all three and reports the first failure in that fixed
// order, whichever finished first, so what it accepts and the error it
// returns do not depend on scheduling.
//
// A shard dataset (manifest NumShards > 0, DESIGN.md §12) carries the
// full offset index but only the owned node range's slice of the edge
// and feature files; the size checks then apply to the local slices and
// reads are translated by the slice base.
func OpenWith(dir string, opts OpenOptions) (*Dataset, error) {
	man, err := LoadManifest(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, err
	}
	if man.NumNodes <= 0 || man.NumEdges < 0 {
		return nil, fmt.Errorf("storage: manifest %s has invalid counts (%d nodes, %d edges)", dir, man.NumNodes, man.NumEdges)
	}
	shardLo, shardHi := int64(0), man.NumNodes
	if man.NumShards > 0 {
		if man.ShardIndex < 0 || man.ShardIndex >= man.NumShards {
			return nil, fmt.Errorf("storage: manifest %s shard index %d out of range [0,%d)", dir, man.ShardIndex, man.NumShards)
		}
		if man.ShardLo < 0 || man.ShardLo > man.ShardHi || man.ShardHi > man.NumNodes {
			return nil, fmt.Errorf("storage: manifest %s shard range [%d,%d) invalid for %d nodes", dir, man.ShardLo, man.ShardHi, man.NumNodes)
		}
		shardLo, shardHi = man.ShardLo, man.ShardHi
	}
	var (
		wg                  sync.WaitGroup
		featPath, labelPath string
		featErr, labelErr   error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		featPath, featErr = validateFeatures(dir, man, shardLo, shardHi)
	}()
	go func() {
		defer wg.Done()
		labelPath, labelErr = validateLabels(dir, man)
	}()
	offsets, edgeBytes, err := validateGraph(dir, man, shardLo, shardHi)
	wg.Wait()
	if err := cmp.Or(err, featErr, labelErr); err != nil {
		return nil, err
	}
	d := &Dataset{
		dir: dir, man: man, offsets: offsets,
		shardLo: shardLo, shardHi: shardHi, entryBase: offsets[shardLo],
		labelPath: labelPath,
	}
	if featPath != "" {
		d.featF, d.featAlign, err = openMaybeDirect(featPath, man.FeatBytes, opts.Direct)
		if err != nil {
			return nil, fmt.Errorf("storage: open feature file: %w", err)
		}
	}
	edgePath := filepath.Join(dir, EdgesFile)
	if opts.Direct {
		f, align, derr := openDirect(edgePath, edgeBytes)
		if derr == nil {
			d.f = f
			d.directAlign = align
			return d, nil
		}
		d.directErr = derr
	}
	f, err := os.Open(edgePath)
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("storage: open edge file: %w", err)
	}
	d.f = f
	return d, nil
}

// validateGraph reads the offset index and checks it and the edge file's
// size against the manifest, returning the index and the local edge
// bytes. The index is read before the edge-file size check because a
// shard's expected edge bytes are offsets[hi]-offsets[lo] entries; for
// an unsharded dataset the two orderings accept/reject identically
// (offsets must span exactly [0, NumEdges]).
func validateGraph(dir string, man Manifest, shardLo, shardHi int64) ([]int64, int64, error) {
	offPath := filepath.Join(dir, OffsetsFile)
	offsets, err := readOffsets(offPath, man.NumNodes)
	if err != nil {
		return nil, 0, err
	}
	if offsets[0] != 0 || offsets[man.NumNodes] != man.NumEdges {
		return nil, 0, fmt.Errorf("storage: offset index %s spans [%d,%d], want [0,%d]", offPath, offsets[0], offsets[man.NumNodes], man.NumEdges)
	}
	for v := int64(0); v < man.NumNodes; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, 0, fmt.Errorf("storage: offset index %s not monotone at node %d", offPath, v)
		}
	}
	wantEdgeBytes := (offsets[shardHi] - offsets[shardLo]) * EntryBytes
	if man.BinBytes != wantEdgeBytes {
		return nil, 0, fmt.Errorf("storage: manifest %s binBytes %d != local entries*%d = %d", dir, man.BinBytes, EntryBytes, wantEdgeBytes)
	}
	edgePath := filepath.Join(dir, EdgesFile)
	fi, err := os.Stat(edgePath)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: stat edge file: %w", err)
	}
	if fi.Size() != wantEdgeBytes {
		return nil, 0, fmt.Errorf("storage: edge file %s is %d bytes, manifest expects %d (truncated capture?)", edgePath, fi.Size(), wantEdgeBytes)
	}
	return offsets, wantEdgeBytes, nil
}

// openMaybeDirect opens path O_DIRECT when direct is requested and the
// probe succeeds, falling back to a buffered handle otherwise (align 0).
func openMaybeDirect(path string, size int64, direct bool) (*os.File, int, error) {
	if direct {
		if f, align, err := openDirect(path, size); err == nil {
			return f, align, nil
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	return f, 0, nil
}

// readOffsets reads the offset index of a numNodes-node graph. The file's
// size is checked before anything is allocated, so a manifest that lies
// about the node count costs a stat, and the index is then read straight
// into the slice it is served from.
func readOffsets(path string, numNodes int64) ([]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: read offset index: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: read offset index: %w", err)
	}
	// The comparison cannot overflow; want, the message's, wraps for
	// counts no file can match.
	if size := fi.Size(); size%OffsetBytes != 0 || size/OffsetBytes-1 != numNodes {
		want := (numNodes + 1) * OffsetBytes
		return nil, fmt.Errorf("storage: offset index %s is %d bytes, want %d (truncated capture?)", path, size, want)
	}
	offsets := make([]int64, numNodes+1)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(offsets))), len(offsets)*OffsetBytes)
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, fmt.Errorf("storage: read offset index: %w", err)
	}
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		// A big-endian host: decode the little-endian file in place.
		for i := range offsets {
			offsets[i] = int64(binary.LittleEndian.Uint64(raw[i*OffsetBytes:]))
		}
	}
	return offsets, nil
}

// Dir returns the dataset directory.
func (d *Dataset) Dir() string { return d.dir }

// Manifest returns the dataset manifest.
func (d *Dataset) Manifest() Manifest { return d.man }

// NumNodes returns the node count.
func (d *Dataset) NumNodes() int64 { return d.man.NumNodes }

// NumEdges returns the edge count.
func (d *Dataset) NumEdges() int64 { return d.man.NumEdges }

// Range returns the half-open entry-index range of node v's neighbors
// in the edge file (paper Fig 2). Byte offsets are index*EntryBytes.
func (d *Dataset) Range(v uint32) (start, end int64) {
	return d.offsets[v], d.offsets[v+1]
}

// Offsets exposes the in-memory offset index itself: NumNodes+1 entry
// indices, Range(v) = (Offsets()[v], Offsets()[v+1]), global on a shard
// dataset like Range. For consumers that scan every node (the cache
// builders' select reads every degree); callers must not modify it.
func (d *Dataset) Offsets() []int64 { return d.offsets }

// Degree returns node v's out-degree.
func (d *Dataset) Degree(v uint32) int64 {
	return d.offsets[v+1] - d.offsets[v]
}

// IsSharded reports whether this dataset is one node-range shard of a
// partitioned graph (DESIGN.md §12). Range/Degree still answer for
// every node (the offset index is global); only the edge and feature
// BYTES of non-owned nodes are absent.
func (d *Dataset) IsSharded() bool { return d.man.NumShards > 0 }

// NumShards returns the partition width (0 for an unsharded dataset).
func (d *Dataset) NumShards() int { return d.man.NumShards }

// ShardIndex returns this shard's position in the partition (0 for an
// unsharded dataset).
func (d *Dataset) ShardIndex() int { return d.man.ShardIndex }

// ShardRange returns the owned node range [lo, hi); [0, NumNodes) for
// an unsharded dataset.
func (d *Dataset) ShardRange() (lo, hi int64) { return d.shardLo, d.shardHi }

// Owns reports whether node v's edge list (and feature vector) is
// present in this dataset's local files. Always true when unsharded.
func (d *Dataset) Owns(v uint32) bool {
	return int64(v) >= d.shardLo && int64(v) < d.shardHi
}

// EntryBase returns the global entry index of the first edge entry in
// the local edge file (0 when unsharded). Ring consumers that plan
// reads in global entry coordinates subtract it before issuing.
func (d *Dataset) EntryBase() int64 { return d.entryBase }

// File exposes the edge file for ring backends that read it directly.
// When DirectAlign() > 0 the handle is O_DIRECT: ring reads through it
// must use aligned offsets, lengths, and memory.
func (d *Dataset) File() *os.File { return d.f }

// DirectAlign returns the O_DIRECT transfer granularity of the edge
// file handle, or 0 when the handle is buffered and reads are
// unconstrained.
func (d *Dataset) DirectAlign() int { return d.directAlign }

// DirectFallback returns why a requested O_DIRECT open fell back to a
// buffered handle (nil when O_DIRECT is active or was never requested).
func (d *Dataset) DirectFallback() error { return d.directErr }

// ReadAt reads raw edge-file bytes at the given GLOBAL byte offset
// (entry index * EntryBytes over the whole graph). It is the access
// path for consumers that want one range of file bytes without a ring —
// the benchmark's read-latency and neighbor-slab probes; consumers with
// many ranges use ReadBatch. On a shard dataset the offset is
// translated into the local slice, so callers address owned nodes
// exactly as they would on the full dataset; reads outside the owned
// slice fail like any out-of-file read. On an O_DIRECT handle,
// arbitrary offsets and lengths are served through an aligned bounce
// buffer, so callers stay oblivious to the alignment constraint.
func (d *Dataset) ReadAt(p []byte, off int64) (int, error) {
	off -= d.entryBase * EntryBytes
	align := d.directAlign
	if align == 0 || len(p) == 0 {
		return d.f.ReadAt(p, off)
	}
	lo := AlignDown(off, align)
	hi := AlignUp(off+int64(len(p)), align)
	buf := AlignedSlice(int(hi-lo), align)
	n, err := d.f.ReadAt(buf, lo)
	got := int64(n) - (off - lo)
	if got < 0 {
		got = 0
	}
	if got > int64(len(p)) {
		got = int64(len(p))
	}
	copy(p[:got], buf[off-lo:])
	if int(got) == len(p) {
		// The aligned over-read may have hit EOF past the requested
		// range; the caller's read is still complete.
		return len(p), nil
	}
	if err == nil {
		err = io.EOF
	}
	return int(got), err
}

// Close releases the edge and feature file handles.
func (d *Dataset) Close() error {
	var err error
	if d.f != nil {
		err = d.f.Close()
		d.f = nil
	}
	if d.featF != nil {
		if ferr := d.featF.Close(); err == nil {
			err = ferr
		}
		d.featF = nil
	}
	return err
}
