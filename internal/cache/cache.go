// Package cache implements the engine's two memory-budgeted row stores:
// the hot-neighbor cache (the complete neighbor lists of the hottest
// nodes) and the hot-node feature cache (their feature vectors). On
// skewed (R-MAT-like) graphs a small number of nodes appear in a large
// fraction of sampled frontiers, so keeping their rows in memory slashes
// device traffic the way DiskGNN and GIDS report — while the engine's
// memory story stays honest, because every cached byte, the index and
// the access counters are charged against an explicit memctl budget.
//
// Both caches are strictly I/O bypasses: they store the same bytes the
// files hold, so a consumer that draws first and only then consults the
// cache produces bit-identical output with the cache on or off, at any
// budget, whatever is pinned.
//
// One order decides what is pinned: (measured heat desc, degree desc,
// node id asc). Heat is an access count the owner feeds in (Count, then
// Fold when the epoch it was taken over completed); with nothing
// measured the order is degree-first, which is what Build and
// BuildFeatures pin. A cache whose budget affords the counters (see
// learner) re-ranks itself on Readmit and swaps only the rows that
// changed; one that cannot stays static for its lifetime.
package cache

import (
	"fmt"
	"math"
	"sync"

	"ringsampler/internal/memctl"
	"ringsampler/internal/uring"
)

// Graph is the subset of a dataset the neighbor-cache builder reads: the
// CSR offset index (NumNodes+1 entry indices; node v's list is entries
// Offsets()[v] to Offsets()[v+1], read-only) and a batch read of the
// edge file, which fills every read's Buf and returns the bytes it moved
// from the file. storage.Dataset satisfies it.
type Graph interface {
	Offsets() []int64
	ReadBatch(reads []uring.Read) (int64, error)
}

// FeatureSource is the subset of a dataset the feature-cache builder
// reads: the offset index (degree is the cold-start heat proxy), the
// feature record stride, and a batch read of the feature file.
// storage.Dataset satisfies it.
type FeatureSource interface {
	Offsets() []int64
	FeatureStride() int64
	FeatureReadBatch(reads []uring.Read) (int64, error)
}

// Owner is optionally implemented by graphs that hold only a node
// range's bytes (shard datasets). The builder restricts candidates to
// the owned range [lo, hi) — only those bytes are readable locally, and
// the caches are pure I/O bypasses, so membership never affects sampled
// output.
type Owner interface {
	ShardRange() (lo, hi int64)
}

// EntryBytes is the on-disk size of one neighbor entry (little-endian
// u32), mirrored from the storage layout so this package does not
// depend on it.
const EntryBytes = 4

// nodeOverheadBytes is the per-row bookkeeping charge. Everything a
// cache holds besides the row bytes fits in rows × nodeOverheadBytes, so
// the cache cannot hide node-proportional memory from memctl: the index
// table is 16 B/row, a variable-row cache adds 8 B/row of offsets, and
// the learner's counters are attached only where they fit beside the
// index (see build).
const nodeOverheadBytes = 48

// source describes the file of per-node rows one cache is built over.
type source struct {
	// offsets is the graph's CSR offset index: node v has degree
	// offsets[v+1]-offsets[v]. Read in place, never copied — a degree
	// snapshot would be node-proportional memory nobody is charged for.
	offsets []int64
	// lo, hi bound the owned node range; with minDeg they define the
	// candidates.
	lo, hi int64
	// minDeg is the smallest degree a candidate has: 1 for neighbor
	// lists (an isolated node has no row), 0 for feature vectors (every
	// node has one, and degree-0 nodes can be layer-0 targets).
	minDeg int64
	// stride is the fixed row size; 0 means node v's row is its neighbor
	// list, degree × EntryBytes at its entry range.
	stride    int64
	readBatch func(reads []uring.Read) (int64, error)
	what      string
}

func (s *source) numNodes() int64 { return int64(len(s.offsets)) - 1 }

func (s *source) degree(v int64) int64 { return s.offsets[v+1] - s.offsets[v] }

func (s *source) rowBytes(deg int64) int64 {
	if s.stride > 0 {
		return s.stride
	}
	return deg * EntryBytes
}

func (s *source) rowOff(v int64) int64 {
	if s.stride > 0 {
		return v * s.stride
	}
	return s.offsets[v] * EntryBytes
}

// Hot is a fixed-capacity store of per-node rows behind an
// open-addressed index. A nil *Hot is a valid always-miss cache.
//
// A static cache (Adaptive() == false) never changes after Build and
// needs no synchronization. An adaptive one is mutated in place by
// Readmit under the write lock: readers bracket their Lookups, and every
// use of the slices Lookup returned, with RLock/RUnlock.
type Hot struct {
	mu     sync.RWMutex
	index  table
	data   []byte
	stride int64   // fixed row bytes; 0: rows are located by off
	off    []int64 // variable rows: row of slot s is data[off[s]:off[s+1]]
	nodes  int
	bytes  int64 // cached row bytes (excluding overhead)
	learn  *learner
}

// Build pins the complete neighbor lists of the highest-degree nodes
// (ties broken by ascending node id), charging listBytes +
// nodeOverheadBytes per node against budget. Selection stops at the
// first candidate that does not fit: the selected set is a prefix of one
// fixed order, so a larger budget always caches a superset of a smaller
// one — which is what makes device traffic provably monotone in the
// budget for a fixed workload. The neighbor cache is always static.
func Build(g Graph, budget *memctl.Budget) (*Hot, error) {
	return build(newSource(g, source{minDeg: 1, readBatch: g.ReadBatch, what: "list"}), budget, false)
}

// BuildFeatures pins feature vectors under budget, stride +
// nodeOverheadBytes per node, in the same prefix-of-one-order fashion as
// Build: degree-first at construction, because nothing has been measured
// yet and hubs dominate frontiers on skewed graphs. When the overhead
// charge also covers per-node access counters the cache is adaptive (see
// Count, Fold, Readmit); the pinned row count never changes either way.
func BuildFeatures(g FeatureSource, budget *memctl.Budget) (*Hot, error) {
	stride := g.FeatureStride()
	if stride <= 0 {
		return nil, fmt.Errorf("cache: feature stride %d must be positive", stride)
	}
	return build(newSource(g, source{stride: stride, readBatch: g.FeatureReadBatch, what: "features"}), budget, true)
}

// newSource completes src with g's offset index and owned node range.
func newSource(g interface{ Offsets() []int64 }, src source) *source {
	src.offsets = g.Offsets()
	src.lo, src.hi = 0, src.numNodes()
	if o, ok := g.(Owner); ok {
		src.lo, src.hi = o.ShardRange()
	}
	return &src
}

// build selects the cold-start prefix of src's candidates under budget,
// charges it, and fills the rows in file order.
func build(src *source, budget *memctl.Budget, learn bool) (*Hot, error) {
	if budget == nil {
		return nil, fmt.Errorf("cache: nil budget")
	}
	if n := src.numNodes(); n <= 0 || n > int64(^uint32(0)) {
		return nil, fmt.Errorf("cache: node count %d outside uint32 range", n)
	}
	if src.lo < 0 || src.hi > src.numNodes() || src.lo > src.hi {
		return nil, fmt.Errorf("cache: owned range [%d,%d) outside the %d nodes", src.lo, src.hi, src.numNodes())
	}
	rank := newRanking(src)
	allowance := budget.Remaining()
	if allowance < 0 {
		allowance = math.MaxInt64
	}
	cut := rank.selectTop(allowance)
	picked := rank.admitted(cut)
	h := &Hot{stride: src.stride}
	if len(picked) == 0 {
		return h, nil
	}
	var dataBytes int64
	for _, v := range picked {
		if src.stride == 0 {
			h.off = append(h.off, dataBytes)
		}
		dataBytes += src.rowBytes(src.degree(int64(v)))
	}
	if err := budget.Charge(dataBytes + int64(len(picked))*nodeOverheadBytes); err != nil {
		return nil, err
	}
	h.nodes, h.bytes = len(picked), dataBytes
	h.data = make([]byte, dataBytes)
	h.index = newTable(len(picked))
	if src.stride == 0 {
		h.off = append(h.off, dataBytes)
	}
	// Ascending id is file order for both layouts, and slots are handed
	// out in the same order, so neighbouring rows merge into one read;
	// the reads go out together.
	fill := filler{src: src, data: h.data}
	var at int64
	for slot, v := range picked {
		n := src.rowBytes(src.degree(int64(v)))
		fill.add(src.rowOff(int64(v)), at, n)
		h.index.insert(v, slot)
		at += n
	}
	if _, err := fill.run(); err != nil {
		return nil, err
	}
	// Learning needs something to choose between — a cut that left a
	// candidate out — and room for its counters beside the index inside
	// the overhead already charged.
	rows := int64(len(picked))
	if learn && !cut.all && h.index.bytes()+learnerBytes(src.numNodes(), rows) <= rows*nodeOverheadBytes {
		h.learn = newLearner(rank, picked)
	}
	return h, nil
}

// filler plans the reads that copy rows from the file into the data
// buffer, merging rows that are adjacent both in the file and in the
// buffer into one read, and issues them all as one batch.
type filler struct {
	src   *source
	data  []byte
	reads []uring.Read
	at    int64 // data offset of the last planned read
	bytes int64 // requested bytes planned
}

// maxFillRun bounds one merged read (an O_DIRECT source bounces the
// whole read through an aligned window).
const maxFillRun = 1 << 20

// add plans the n-byte row at file offset fileOff into data[dataOff:].
func (f *filler) add(fileOff, dataOff, n int64) {
	f.bytes += n
	if k := len(f.reads) - 1; k >= 0 {
		last := &f.reads[k]
		if m := int64(len(last.Buf)); fileOff == last.Off+m && dataOff == f.at+m && m+n <= maxFillRun {
			last.Buf = f.data[f.at : dataOff+n]
			return
		}
	}
	f.reads = append(f.reads, uring.Read{Off: fileOff, Buf: f.data[dataOff : dataOff+n]})
	f.at = dataOff
}

// run issues the planned reads and returns the bytes the source moved
// from the file to serve them: f.bytes, plus alignment slack when the
// source is O_DIRECT.
func (f *filler) run() (int64, error) {
	moved, err := f.src.readBatch(f.reads)
	if err != nil {
		return 0, fmt.Errorf("cache: fill %d bytes of %s in %d reads: %w", f.bytes, f.src.what, len(f.reads), err)
	}
	return moved, nil
}

// Lookup returns node v's cached row as raw file bytes (a neighbor list,
// EntryBytes per neighbor, or a feature vector), or nil when v is not
// cached. The returned slice aliases the cache; callers must not modify
// it, and on an adaptive cache must hold the read lock while they use it.
func (h *Hot) Lookup(v uint32) []byte {
	if h == nil || h.nodes == 0 {
		return nil
	}
	slot := h.index.find(v)
	if slot < 0 {
		return nil
	}
	if h.stride > 0 {
		o := int64(slot) * h.stride
		return h.data[o : o+h.stride]
	}
	return h.data[h.off[slot]:h.off[slot+1]]
}

// RLock takes the read lock an adaptive cache's readers hold across a
// batch of Lookups. A no-op on a nil or static cache, which never
// changes.
func (h *Hot) RLock() {
	if h.Adaptive() {
		h.mu.RLock()
	}
}

// RUnlock releases RLock.
func (h *Hot) RUnlock() {
	if h.Adaptive() {
		h.mu.RUnlock()
	}
}

// Nodes returns how many nodes are cached.
func (h *Hot) Nodes() int {
	if h == nil {
		return 0
	}
	return h.nodes
}

// Bytes returns the cached row bytes (excluding per-node overhead).
func (h *Hot) Bytes() int64 {
	if h == nil {
		return 0
	}
	return h.bytes
}
