// Package cache implements the engine's two memory-budgeted row stores:
// the neighbor cache (complete neighbor lists) and the hot-node feature
// cache (feature vectors). Keeping rows in memory saves the reads that
// sampling would otherwise issue for them, the way DiskGNN and GIDS
// report — while the engine's memory story stays honest, because a cache
// charges its memctl budget exactly what it holds: the rows, the index
// and the access counters.
//
// Both caches are strictly I/O bypasses: they store the same bytes the
// files hold, so a consumer that draws first and only then consults the
// cache produces bit-identical output with the cache on or off, at any
// budget, whatever is pinned.
//
// One order decides what is pinned: measured heat per charged byte desc,
// then charge asc, degree desc and node id asc. Heat is an access count
// the owner feeds in (Count, then Fold when the epoch it was taken over
// completed); only a feature cache measures it. With nothing measured a
// neighbor list's charge grows with its length, so Build pins the
// shortest lists first: a visit to an uncached list costs at least one
// read however long it is, and short lists save the most reads per byte.
// Feature rows all cost the same, so BuildFeatures pins degree-first, the
// skewed graph's hottest rows. A learning feature cache re-ranks itself on
// Readmit and swaps only the rows that changed; every other cache is
// static for its lifetime.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"ringsampler/internal/memctl"
	"ringsampler/internal/uring"
)

// Graph is the subset of a dataset the neighbor-cache builder reads: the
// CSR offset index (NumNodes+1 entry indices; node v's list is entries
// Offsets()[v] to Offsets()[v+1], read-only) and a batch read of the
// edge file, which fills dst as the reads say and returns the bytes it
// moved from the file. storage.Dataset satisfies it.
type Graph interface {
	Offsets() []int64
	ReadBatch(dst []byte, reads []uring.Read) (int64, error)
}

// FeatureSource is the subset of a dataset the feature-cache builder
// reads: the offset index (degree is the cold-start heat proxy), the record
// stride, and a batch read of the feature file; storage.Dataset satisfies it.
type FeatureSource interface {
	Offsets() []int64
	FeatureStride() int64
	FeatureReadBatch(dst []byte, reads []uring.Read) (int64, error)
}

// Owner is optionally implemented by graphs that hold only a node
// range's bytes (shard datasets). The builder restricts candidates to the
// owned range [lo, hi), the only bytes readable locally; the caches are
// pure I/O bypasses, so membership never affects sampled output.
type Owner interface {
	ShardRange() (lo, hi int64)
}

// EntryBytes is the on-disk size of one neighbor entry (little-endian
// u32), mirrored from the storage layout so this package does not
// depend on it.
const EntryBytes = 4

// overhead is what a cache over numNodes nodes holds besides its row
// bytes: perRow per pinned row and fixed once. Every cache finds its rows
// by rank (rankBytes); variable rows add an 8-byte offset per row and a
// closing one, and a learning cache (fixed rows only) its learner
// (learnerBytes).
func overhead(numNodes int64, variable, learn bool) (perRow, fixed int64) {
	fixed = rankBytes(numNodes)
	if variable {
		perRow, fixed = 8, fixed+8
	}
	if learn {
		fixed += learnerBytes(numNodes)
	}
	return perRow, fixed
}

// FeatureBudget is what BuildFeatures charges for rows rows, learn or not.
func FeatureBudget(numNodes, stride, rows int64, learn bool) int64 {
	perRow, fixed := overhead(numNodes, false, learn)
	return fixed + rows*(stride+perRow)
}

// source describes the file of per-node rows one cache is built over.
type source struct {
	// offsets is the graph's CSR offset index: node v has degree
	// offsets[v+1]-offsets[v]. Read in place, never copied — a degree
	// snapshot would be node-proportional memory nobody is charged for.
	offsets []int64
	// lo, hi bound the owned node range; with minDeg they define the candidates.
	lo, hi int64
	// minDeg is the smallest degree a candidate has: 1 for neighbor
	// lists (an isolated node has no row), 0 for feature vectors (every
	// node has one, and degree-0 nodes can be layer-0 targets).
	minDeg int64
	// stride is the fixed row size; 0 means node v's row is its neighbor
	// list, degree × EntryBytes at its entry range.
	stride    int64
	readBatch func(dst []byte, reads []uring.Read) (int64, error)
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

// Hot is a fixed-capacity store of per-node rows behind a rank index over
// node ids (see ranked). A nil *Hot is a valid always-miss cache.
//
// A static cache (Adaptive() == false) never changes after Build and
// needs no synchronization. An adaptive one is mutated in place by
// Readmit under the write lock: readers bracket their Lookups, and every
// use of the slices Lookup returned, with RLock/RUnlock.
type Hot struct {
	mu sync.RWMutex
	// pinned indexes the rows: row slot s holds the pinned node of rank s.
	pinned ranked
	data   []byte
	stride int64   // fixed row bytes; 0: rows are located by off
	off    []int64 // variable rows: row of slot s is data[off[s]:off[s+1]]
	learn  *learner
}

// ranked is a cache's index: one bit per node, set when the node is
// pinned, and a rank directory. A pinned node's slot is its rank among
// the pinned nodes, so rows sit in ascending node order and the index
// holds nothing per row. dir[b] counts the pinned nodes before block b of
// blockWords words, so a lookup reads one block (a cache line) of bits.
type ranked struct {
	bits  []uint64
	dir   []uint32
	total int // pinned nodes
}

const blockWords = 8

func newRanked(numNodes int64) ranked {
	words := (numNodes + 63) / 64
	return ranked{bits: make([]uint64, words), dir: make([]uint32, (words+blockWords-1)/blockWords)}
}

// rankBytes is what a rank index over numNodes nodes holds whatever its
// row count: the bitmap and a uint32 per blockWords words of it.
func rankBytes(numNodes int64) int64 {
	words := (numNodes + 63) / 64
	return words*8 + (words+blockWords-1)/blockWords*4
}

// find returns v's slot, or -1.
func (r *ranked) find(v uint32) int {
	w, bit := int(v>>6), uint64(1)<<(v&63)
	if w >= len(r.bits) || r.bits[w]&bit == 0 {
		return -1
	}
	slot := int(r.dir[w/blockWords]) + bits.OnesCount64(r.bits[w]&(bit-1))
	for _, x := range r.bits[w&^(blockWords-1) : w] {
		slot += bits.OnesCount64(x)
	}
	return slot
}

// rebuild recomputes the directory after the bits changed.
func (r *ranked) rebuild() {
	r.total = 0
	for w, x := range r.bits {
		if w%blockWords == 0 {
			r.dir[w/blockWords] = uint32(r.total)
		}
		r.total += bits.OnesCount64(x)
	}
}

// Build pins complete neighbor lists under budget, shortest first (ties
// broken by ascending node id). Selection stops at the first candidate
// that does not fit: the selected set is a prefix of one fixed order, so
// a larger budget always caches a superset of a smaller one — which is
// what makes device traffic provably monotone in the budget for a fixed
// workload. The neighbor cache is always static.
func Build(g Graph, budget *memctl.Budget) (*Hot, error) {
	return build(newSource(g, source{minDeg: 1, readBatch: g.ReadBatch, what: "list"}), budget, false)
}

// BuildFeatures pins feature vectors under budget, in the same
// prefix-of-one-order fashion as Build: degree-first at construction,
// because nothing has been measured yet and hubs dominate frontiers on
// skewed graphs. The cache is adaptive (see Count, Fold, Readmit) when
// build gives it a learner; the pinned row count never changes either way.
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
// charges it exactly what the cache holds (see overhead), marks it in the
// rank index and fills the rows in file order. A feature cache learns
// when its budget is at least LearnBudget and too small for a static
// cache to pin every row.
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
	allowance, n := budget.Remaining(), src.numNodes()
	if allowance < 0 {
		allowance = math.MaxInt64
	}
	learn = learn && allowance >= LearnBudget(n) && allowance < FeatureBudget(n, src.stride, src.hi-src.lo, false)
	perRow, fixed := overhead(n, src.stride == 0, learn)
	rank := newRanking(src, perRow)
	c := rank.selectTop(max(allowance-fixed, 0))
	pinned := newRanked(n)
	partRows, partBytes := c.rows, c.bytes
	// slots[i] and ats[i] are the first slot and data byte of part i's rows.
	slots, ats := make([]int64, len(partRows)+1), make([]int64, len(partRows)+1)
	for i := range partRows {
		slots[i+1], ats[i+1] = slots[i]+partRows[i], ats[i]+partBytes[i]
	}
	rows, dataBytes := slots[len(partRows)], ats[len(partRows)]
	h := &Hot{stride: src.stride}
	if rows == 0 {
		return h, nil
	}
	if err := budget.Charge(dataBytes + rows*perRow + fixed); err != nil {
		return nil, err
	}
	h.pinned, h.data = pinned, make([]byte, dataBytes)
	if src.stride == 0 {
		h.off = make([]int64, rows+1)
		h.off[rows] = dataBytes
	}
	// Each part marks and lays out its own rows, concurrently. Ascending
	// id is file order for both layouts, and so is rank order, the order
	// of the slots, so neighbouring rows merge into one read; the reads
	// go out together.
	lays := make([]laying, len(partRows))
	for i := range lays {
		lays[i] = laying{src: src, off: h.off, slot: slots[i], at: ats[i]}
	}
	if got, gotBytes := rank.mark(c, pinned.bits, lays); !slices.Equal(got, partRows) || !slices.Equal(gotBytes, partBytes) {
		return nil, fmt.Errorf("cache: marked %v rows of %v B per part, planned %v of %v B", got, gotBytes, partRows, partBytes)
	}
	fill := filler{src: src, data: h.data}
	for i := range lays {
		l := &lays[i]
		l.flush(l.rd)
		for _, rd := range l.reads {
			fill.add(rd.Off, rd.Pos, rd.Len)
		}
	}
	if _, err := fill.run(); err != nil {
		return nil, err
	}
	h.pinned.rebuild()
	if learn {
		rank.heat = make([]uint16, n)
		h.learn = &learner{rank: rank, want: make([]uint64, (n+63)/64)}
	}
	return h, nil
}

// laying lays out one part's rows as mark finds them: each row's slot
// and data bytes follow the last one's, from where the parts before it
// end, and rows adjacent in the file and in the cache merge into one
// fill read of at most maxFillRun (a longer row is a read of its own).
type laying struct {
	src      *source
	off      []int64 // variable rows: the cache's row offsets
	slot, at int64
	rd       uring.Read // the read being extended
	reads    []uring.Read
}

// word lays out the rows of the pinned bits w of the 64 nodes from v0.
func (l *laying) word(v0 int64, w uint64) {
	// Locals, not fields: a store into off could otherwise alias them.
	offsets, stride, off, slot, at, rd := l.src.offsets, l.src.stride, l.off, l.slot, l.at, l.rd
	for ; w != 0; w &= w - 1 {
		v := v0 + int64(bits.TrailingZeros64(w))
		fileOff, n := v*stride, stride
		if stride == 0 {
			fileOff, n = offsets[v]*EntryBytes, (offsets[v+1]-offsets[v])*EntryBytes
			off[slot] = at
		}
		if rd.Len == 0 || fileOff != rd.Off+rd.Len || rd.Len+n > maxFillRun {
			l.flush(rd)
			rd = uring.Read{Off: fileOff, Pos: at}
		}
		rd.Len += n
		slot, at = slot+1, at+n
	}
	l.slot, l.at, l.rd = slot, at, rd
}

// flush ends the read rd.
func (l *laying) flush(rd uring.Read) {
	if rd.Len > 0 {
		l.reads = append(l.reads, rd)
	}
}

// filler plans the reads that copy rows from the file into the data
// buffer, merging rows that are adjacent both in the file and in the
// buffer into one read, and issues them all as one batch.
type filler struct {
	src   *source
	data  []byte
	reads []uring.Read
	bytes int64 // requested bytes planned
}

// maxFillRun bounds one merged read (an O_DIRECT source bounces the
// whole read through an aligned window).
const maxFillRun = 1 << 20

// add plans the n-byte row at file offset fileOff into data[dataOff:].
func (f *filler) add(fileOff, dataOff, n int64) {
	f.bytes += n
	f.reads = uring.Append(f.reads, fileOff, dataOff, n, maxFillRun)
}

// run issues the planned reads and returns the bytes the source moved
// from the file: f.bytes, plus alignment slack when it is O_DIRECT.
func (f *filler) run() (int64, error) {
	moved, err := f.src.readBatch(f.data, f.reads)
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
	if h == nil {
		return nil
	}
	slot := h.pinned.find(v)
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
// batch of Lookups; a no-op on a nil or static cache, which never changes.
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
	return h.pinned.total
}

// Bytes returns the cached row bytes (excluding per-node overhead).
func (h *Hot) Bytes() int64 {
	rows, _, _ := h.Held()
	return rows
}

// Held measures what h's slices hold, in bytes: the rows, the index (the
// pinned bitmap and rank directory, with the offsets of variable rows),
// and the learner's counters and re-admission bitmap. Build charged its
// budget exactly their sum.
func (h *Hot) Held() (rows, index, learn int64) {
	if h == nil {
		return 0, 0, 0
	}
	index = int64(len(h.off)+len(h.pinned.bits))*8 + int64(len(h.pinned.dir))*4
	if l := h.learn; l != nil {
		learn = int64(len(l.rank.heat))*2 + int64(len(l.want))*8
	}
	return int64(len(h.data)), index, learn
}
