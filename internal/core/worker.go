package core

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"sync"

	"ringsampler/internal/cache"
	"ringsampler/internal/memctl"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// Sampler is the real RingSampler engine over an opened dataset. It is
// cheap and immutable; per-thread state lives in Workers.
type Sampler struct {
	ds      *storage.Dataset
	cfg     Config
	backend uring.Backend
	// hot is the shared hot-neighbor cache (nil when disabled):
	// immutable after New, so workers consult it with no
	// synchronization.
	hot *cache.Hot
	// featHot is the shared hot-node feature cache (nil when disabled),
	// and featBudget what it was charged against. When its budget affords
	// access counters it is adaptive: the epoch runner re-admits rows at
	// epoch boundaries, so workers hold its read lock across each feature
	// stage's lookups and copies.
	featHot    *cache.Hot
	featBudget *memctl.Budget
	// learnMu is the token of the one epoch that measures feature heat:
	// RunEpochSeeded re-admits, counts and folds only while it holds it,
	// so epochs run concurrently on one sampler stay race-free (the
	// extra ones read the cache without teaching it).
	learnMu sync.Mutex
}

// New validates the configuration and binds the engine to a ring
// backend. BackendIOURing fails fast here when the environment doesn't
// support it (callers gate on uring.Probe()). When
// Config.CacheBudgetBytes (or FeatureCacheBudgetBytes) is positive the
// corresponding cache is populated here — shortest neighbor lists
// first, feature vectors degree-first — charged against a memctl budget
// of that size. The feature cache then follows
// the measured access pattern from the second epoch on (see
// RunEpochSeeded) — unless its budget is below cache.LearnBudget, which
// is logged once here and leaves it degree-first.
func New(ds *storage.Dataset, cfg Config, backend uring.Backend) (*Sampler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if backend == uring.BackendIOURing && !uring.Probe().Ring {
		return nil, fmt.Errorf("core: io_uring backend requested but unavailable; use %s", uring.BackendPool)
	}
	if cfg.FetchFeatures && !ds.HasFeatures() {
		return nil, fmt.Errorf("core: FetchFeatures set but dataset %s has no feature file", ds.Dir())
	}
	if cfg.FeatureCacheBudgetBytes > 0 && !ds.HasFeatures() {
		return nil, fmt.Errorf("core: feature cache budget set but dataset %s has no feature file", ds.Dir())
	}
	if err := ds.DirectFallback(); err != nil {
		// Logged once here, so a benchmark never silently measures less
		// than it claims.
		log.Printf("core: O_DIRECT requested but fell back to buffered reads: %v", err)
	}
	s := &Sampler{ds: ds, cfg: cfg, backend: backend}
	if cfg.CacheBudgetBytes > 0 {
		hot, err := cache.Build(ds, memctl.New(cfg.CacheBudgetBytes))
		if err != nil {
			return nil, fmt.Errorf("core: build hot-neighbor cache: %w", err)
		}
		s.hot = hot
	}
	if cfg.FeatureCacheBudgetBytes > 0 {
		s.featBudget = memctl.New(cfg.FeatureCacheBudgetBytes)
		fh, err := cache.BuildFeatures(ds, s.featBudget)
		if err != nil {
			return nil, fmt.Errorf("core: build hot-node feature cache: %w", err)
		}
		s.featHot = fh
		if lo, hi := ds.ShardRange(); !fh.Adaptive() && int64(fh.Nodes()) < hi-lo {
			log.Printf("core: feature cache budget %d B pins %d rows and stays degree-first: it learns from %d B, eight times its access counters, bitmaps and rank directory",
				cfg.FeatureCacheBudgetBytes, fh.Nodes(), cache.LearnBudget(ds.NumNodes()))
		}
	}
	return s, nil
}

// Config returns the engine configuration.
func (s *Sampler) Config() Config { return s.cfg }

// CacheInfo returns the hot-neighbor cache's pinned node count and
// cached list bytes — zeros when the cache is disabled.
func (s *Sampler) CacheInfo() (nodes int, bytes int64) {
	return s.hot.Nodes(), s.hot.Bytes()
}

// FeatureCacheInfo returns the hot-node feature cache's pinned node
// count and cached vector bytes — zeros when the cache is disabled.
func (s *Sampler) FeatureCacheInfo() (nodes int, bytes int64) {
	return s.featHot.Nodes(), s.featHot.Bytes()
}

// FeatureCacheHeld returns what the feature cache holds, by component
// (cache.Hot.Held), and what its budget was charged: zeros when it is off.
func (s *Sampler) FeatureCacheHeld() (rows, index, learn, charged int64) {
	rows, index, learn = s.featHot.Held()
	if s.featBudget != nil {
		charged = s.featBudget.Used()
	}
	return rows, index, learn, charged
}

// FeatureCacheAdaptive reports whether the feature cache re-admits rows
// by measured access counts at epoch boundaries: it does when its
// counters, bitmaps and rank directory take at most an eighth of its
// budget (cache.LearnBudget) and a static cache could not pin every row
// under that budget.
func (s *Sampler) FeatureCacheAdaptive() bool { return s.featHot.Adaptive() }

// Worker is one sampling thread (paper Fig 3a): private rings, a
// private RNG, and private offset/neighbor/target workspaces. Workers
// share nothing, so an epoch runs them with zero synchronization.
// A Worker is not safe for concurrent use.
//
// The worker reads up to two files, each through a ring and a
// uring.Driver of its own: the edge file (always) and the feature file
// (lazily, on the first feature fetch). The stages never overlap in
// time — the feature stage runs only after every sampling layer's reads
// have completed — so the two share the worker's O_DIRECT arena, stage
// buffer, and read plan.
type Worker struct {
	s     *Sampler
	id    int
	rng   sample.RNG // reseeded or restored by every entry point that draws
	stats IOStats    // cache counters and active knobs; the drivers count the reads

	// edge reads the edge file; feat the feature file (feat.Ring stays
	// nil until ensureFeat).
	edge uring.Driver
	feat uring.Driver

	// broken marks a worker one of whose rings may still hold
	// completions that could not be drained. Every entry point refuses
	// such a worker.
	broken bool

	// arena is the O_DIRECT scratch both drivers cut their windows
	// from: DefaultArenaBytes, allocated when the worker opens its first
	// O_DIRECT file (nil until then).
	arena []byte

	// Workspaces, reused across batches (paper §3.1).
	reads       []uring.Read // the stage's read plan
	frontier    []uint32     // target workspace, rebuilt between layers
	featNodes   []uint32     // feature stage: batch node-union accumulation
	sortTmp     []uint32     // radix scratch of the frontier and node-union sort+dedup
	buf         []byte       // stage buffer, reused across stages
	idxs        []int        // fanout-index scratch
	cachedPicks []cachedPick // cache-served byte ranges awaiting copy
}

// cachedPick is one cache-served byte range: src is cached file bytes,
// bufPos the stage-buffer position they land at. Copies are deferred
// because the buffer is sized only after planning completes.
type cachedPick struct {
	bufPos int64
	src    []byte
}

// zeroEntry is the placeholder bytes a shard writes for a non-owned
// node's pick (never read back as a neighbor value: the router replaces
// the span with the owning shard's bytes).
var zeroEntry = make([]byte, storage.EntryBytes)

// NewWorker creates worker `id` with its own edge ring. The id names
// the worker in errors and to Config.WrapRing; what a worker samples
// never depends on it.
func (s *Sampler) NewWorker(id int) (*Worker, error) {
	w := &Worker{s: s, id: id}
	edge, err := w.openFile(s.ds.File(), s.ds.DirectAlign())
	if err != nil {
		return nil, err
	}
	w.edge = edge
	w.stats.ActiveODirect = edge.Align > 0
	return w, nil
}

// openFile builds one worker ring over f, applies the WrapRing hook, and
// returns a driver over it — with, on an O_DIRECT file, the worker's
// arena, allocated here the first time. Used for the edge file at
// construction and the feature file on first feature fetch.
func (w *Worker) openFile(f *os.File, align int) (uring.Driver, error) {
	cfg := &w.s.cfg
	ring, err := uring.New(w.s.backend, f, cfg.RingSize)
	if err != nil {
		return uring.Driver{}, err
	}
	if cfg.WrapRing != nil {
		wrapped, werr := cfg.WrapRing(ring, w.id)
		if werr != nil {
			// Close the inner ring, not the hook's return value — a
			// failing hook typically returns nil.
			ring.Close()
			return uring.Driver{}, fmt.Errorf("core: wrap worker %d ring: %w", w.id, werr)
		}
		ring = wrapped
	}
	d := uring.Driver{Ring: ring, Align: align}
	if align > 0 {
		if w.arena == nil {
			// 4096-aligned, so every chunk suits any granularity the
			// dataset's O_DIRECT probe settles on.
			w.arena = storage.AlignedSlice(DefaultArenaBytes, 4096)
		}
		d.Arena = w.arena
	}
	return d, nil
}

// ensureFeat lazily opens the worker's feature ring. Lazy so workers on
// featureful datasets cost nothing extra until a batch actually wants
// features.
func (w *Worker) ensureFeat() error {
	if w.feat.Ring != nil {
		return nil
	}
	ds := w.s.ds
	feat, err := w.openFile(ds.FeatureFile(), ds.FeatureAlign())
	if err != nil {
		return fmt.Errorf("core: worker %d feature ring: %w", w.id, err)
	}
	w.feat = feat
	if feat.Align > 0 {
		w.stats.ActiveODirect = true
	}
	return nil
}

// Close releases the worker's rings.
func (w *Worker) Close() error {
	err := w.edge.Ring.Close()
	if w.feat.Ring != nil {
		if ferr := w.feat.Ring.Close(); err == nil {
			err = ferr
		}
	}
	return err
}

// IOStats returns the worker's accumulated I/O counters: its own cache
// counters, its drivers' read counters (edge reads as Reads/BytesRead,
// feature reads as FeatReads/FeatBytesRead, the rest summed), and each
// ring's syscall counters when the backend reports them.
func (w *Worker) IOStats() IOStats {
	st := w.stats
	e, f := &w.edge.Stats, &w.feat.Stats
	st.Reads, st.BytesRead = e.Reads, e.Bytes
	st.FeatReads, st.FeatBytesRead = f.Reads, f.Bytes
	st.Retries = e.Retries + f.Retries
	st.ShortReads = e.ShortReads + f.ShortReads
	st.TransientErrs = e.TransientErrs + f.TransientErrs
	st.StaleDrained = e.StaleDrained + f.StaleDrained
	st.AlignSlackBytes = e.SlackBytes + f.SlackBytes
	for _, ring := range []uring.Ring{w.edge.Ring, w.feat.Ring} {
		if sr, ok := ring.(uring.SyscallReporter); ok {
			sys := sr.Syscalls()
			st.SubmitSyscalls += sys.Submits
			st.WaitSyscalls += sys.Waits
		}
	}
	return st
}

// Broken reports whether one of the worker's rings could not be proven
// empty after a failed batch (see ErrWorkerBroken). The Pool uses it to
// retire a worker eagerly instead of discovering the refusal on the
// next job.
func (w *Worker) Broken() bool { return w.broken }

// BatchOpts parameterizes one SampleBatchOpts call. The zero value
// samples with the engine config's fanouts from seed 0.
type BatchOpts struct {
	// Fanouts overrides the engine config's per-layer sample counts;
	// empty means Config.Fanouts.
	Fanouts []int
	// Seed reseeds the worker RNG before sampling.
	Seed uint64
	// Features runs the feature stage for this batch even when
	// Config.FetchFeatures is off — the serving layer's per-request
	// switch.
	Features bool
}

// SampleBatchOpts reseeds the worker's RNG to NewRNG(o.Seed) and samples
// one mini-batch. The reseed makes the sample set a pure function of
// (dataset, config, targets, options) — independent of which worker runs
// the batch, of how many workers exist, and of what the worker ran
// before — which is how the epoch runner stays thread-count invariant and
// one pooled serving worker answers requests with heterogeneous fanouts
// back to back.
//
// All sampling decisions are made before any I/O is issued, and only
// the sampled entries cross the storage boundary.
func (w *Worker) SampleBatchOpts(targets []uint32, o BatchOpts) (*Batch, error) {
	fanouts := o.Fanouts
	if len(fanouts) == 0 {
		fanouts = w.s.cfg.Fanouts
	}
	for i, f := range fanouts {
		if f <= 0 {
			return nil, fmt.Errorf("core: fanout[%d] = %d must be positive", i, f)
		}
	}
	if w.broken {
		return nil, fmt.Errorf("core: worker %d: %w", w.id, ErrWorkerBroken)
	}
	if w.s.ds.IsSharded() {
		// A shard can replay any layer's draws (SampleLayer) but cannot
		// produce whole batches alone: later frontiers contain nodes whose
		// bytes live on other shards. The router composes batches.
		return nil, fmt.Errorf("core: dataset %s is shard %d/%d; whole-batch sampling needs the router (see SampleLayer)",
			w.s.ds.Dir(), w.s.ds.ShardIndex(), w.s.ds.NumShards())
	}
	w.rng.Reseed(o.Seed)
	batch := &Batch{Layers: make([]Layer, len(fanouts))}
	w.frontier = append(w.frontier[:0], targets...)
	for li, fanout := range fanouts {
		layer := &batch.Layers[li]
		if err := w.sampleLayer(layer, fanout); err != nil {
			return nil, err
		}
		if li == len(fanouts)-1 {
			break // no next layer; the feature stage builds its own union
		}
		// layer.Targets holds its own copy, so reusing the frontier
		// workspace as the destination is safe.
		w.frontier = nextFrontier(layer, w.frontier, &w.sortTmp)
	}
	if o.Features || w.s.cfg.FetchFeatures {
		if err := w.fetchBatchFeatures(batch); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// sampleLayer samples one layer from w.frontier: plan, Run, decode.
// Every node's fanout indices are drawn first — Floyd's k of deg without
// replacement, sorted so the picks arrive in file order (paper §2.1) —
// the same way whatever the cache holds, so RNG consumption (and
// therefore the sampled set) never depends on it. The plan reads
// exactly the picked entries (offset-based reads, paper Fig 2), merging
// picks adjacent in the file and the stage buffer. Cached nodes' picks are copied from the hot-neighbor cache
// instead of read, and on a shard the spans of non-owned nodes are
// zero-filled (see shard.go).
func (w *Worker) sampleLayer(layer *Layer, fanout int) error {
	ds, hot := w.s.ds, w.s.hot
	sharded, base := ds.IsSharded(), ds.EntryBase()
	layer.Targets = append([]uint32(nil), w.frontier...)
	layer.Starts = make([]int64, len(w.frontier)+1)
	w.reads, w.cachedPicks = w.reads[:0], w.cachedPicks[:0]
	var total, pos int64 // picks so far; stage-buffer bytes planned
	for i, v := range w.frontier {
		layer.Starts[i] = total
		st, en := ds.Range(v)
		deg := int(en - st)
		if deg == 0 {
			continue
		}
		k := min(fanout, deg)
		w.idxs = sample.Floyd(&w.rng, deg, k, w.idxs[:0])
		sort.Ints(w.idxs)
		total += int64(k)
		if sharded && !ds.Owns(v) {
			// The draws above consumed the exact stream (degrees come from
			// the global offset index); the bytes live on another shard.
			for range w.idxs {
				w.cachedPicks = append(w.cachedPicks, cachedPick{bufPos: pos, src: zeroEntry})
				pos += storage.EntryBytes
			}
			continue
		}
		if nb := hot.Lookup(v); nb != nil {
			w.stats.CacheHits++
			for _, idx := range w.idxs {
				w.cachedPicks = append(w.cachedPicks, cachedPick{bufPos: pos, src: nb[idx*storage.EntryBytes : (idx+1)*storage.EntryBytes]})
				pos += storage.EntryBytes
			}
			w.stats.CacheBytes += int64(k) * storage.EntryBytes
			continue
		}
		if hot != nil {
			w.stats.CacheMisses++
		}
		// Reads are planned in the local file: on a shard it starts at
		// entry `base` (zero when unsharded).
		off := (st - base) * storage.EntryBytes
		for _, idx := range w.idxs {
			w.reads = uring.Append(w.reads, off+int64(idx)*storage.EntryBytes, pos, storage.EntryBytes, math.MaxInt64)
			pos += storage.EntryBytes
		}
	}
	layer.Starts[len(w.frontier)] = total
	w.sizeBuf(pos)
	if err := w.run(&w.edge); err != nil {
		return err
	}
	// Picks were planned in frontier order at sequential positions, so
	// the buffer is exactly the concatenated sampled neighbors.
	layer.Neighbors = decodeU32(w.buf)
	return nil
}

// fetchBatchFeatures runs the post-draw feature stage: fetch one vector
// per node of the batch's node union (see FeatNodeUnion) through the
// feature ring. Runs strictly after all sampling layers, so it can never
// perturb the sampled node set.
func (w *Worker) fetchBatchFeatures(b *Batch) error {
	w.featNodes = featNodeUnion(b, w.featNodes, &w.sortTmp)
	b.FeatNodes = append([]uint32(nil), w.featNodes...)
	feats, err := w.featuresFor(b.FeatNodes)
	if err != nil {
		return err
	}
	b.Features = feats
	b.FeatureDim = w.s.ds.FeatureDim()
	return nil
}

// FetchFeatures reads the feature vectors of the given nodes through
// the worker's feature ring and returns them back to back in input
// order (duplicates allowed, one stride-sized record per input entry).
// Like SampleBatchOpts it refuses a broken worker.
func (w *Worker) FetchFeatures(nodes []uint32) ([]byte, error) {
	if w.broken {
		return nil, fmt.Errorf("core: worker %d: %w", w.id, ErrWorkerBroken)
	}
	return w.featuresFor(nodes)
}

// featuresFor plans and runs the feature reads for nodes: cached vectors
// are served from the feature cache, the rest are read through the
// feature ring, records adjacent in the file and the stage buffer merged
// into one read.
func (w *Worker) featuresFor(nodes []uint32) ([]byte, error) {
	ds := w.s.ds
	if !ds.HasFeatures() {
		return nil, fmt.Errorf("core: dataset %s has no feature file", ds.Dir())
	}
	if err := w.ensureFeat(); err != nil {
		return nil, err
	}
	n, err := w.planFeatures(nodes)
	if err != nil {
		return nil, err
	}
	if err := w.run(&w.feat); err != nil {
		return nil, err
	}
	// One pass: appending to an empty slice allocates without zero-filling
	// the bytes the copy is about to overwrite.
	return append([]byte{}, w.buf[:n]...), nil
}

// planFeatures is featuresFor's memory half: it plans the reads of the
// uncached nodes, sizes the stage buffer and lands the cached vectors in
// it, returning the stage's byte count. The feature cache's read lock is
// held once across all of it — the lookups and the copies out of the
// rows they returned — so an epoch-boundary re-admission can never swap
// a row under a stage.
func (w *Worker) planFeatures(nodes []uint32) (int64, error) {
	stride := w.s.ds.FeatureStride()
	// On a shard dataset only the owned range's vectors are present;
	// the router scatters feature fetches by ownership, so a non-owned
	// node here is a caller bug, rejected before any I/O. Unsharded,
	// the range is [0, NumNodes) and this is the plain bounds check.
	ownLo, ownHi := w.s.ds.ShardRange()
	hot := w.s.featHot
	hot.RLock()
	defer hot.RUnlock()
	w.reads, w.cachedPicks = w.reads[:0], w.cachedPicks[:0]
	var pos int64
	for _, v := range nodes {
		if int64(v) < ownLo || int64(v) >= ownHi {
			return 0, fmt.Errorf("core: feature fetch for node %d outside [%d,%d)", v, ownLo, ownHi)
		}
		if fb := hot.Lookup(v); fb != nil {
			w.cachedPicks = append(w.cachedPicks, cachedPick{bufPos: pos, src: fb})
			w.stats.FeatCacheHits++
			w.stats.FeatCacheBytes += stride
		} else {
			if hot != nil {
				w.stats.FeatCacheMisses++
			}
			w.reads = uring.Append(w.reads, (int64(v)-ownLo)*stride, pos, stride, math.MaxInt64)
		}
		pos += stride
	}
	w.sizeBuf(pos)
	return pos, nil
}

// run pushes the stage's read plan through d into the stage buffer. A
// failed run has drained d's ring, or marks the worker broken when it
// could not.
func (w *Worker) run(d *uring.Driver) error {
	err := d.Run(w.buf, w.reads)
	if err != nil && d.Broken() {
		w.broken = true
	}
	return err
}

// sizeBuf sizes the stage buffer to n bytes and lands every
// cache-served range in it. Cached ranges and planned reads are
// disjoint, so the copies may precede the reads.
func (w *Worker) sizeBuf(n int64) {
	w.buf = grow(w.buf, n)
	for _, cp := range w.cachedPicks {
		copy(w.buf[cp.bufPos:], cp.src)
	}
}

func grow(buf []byte, n int64) []byte {
	if int64(cap(buf)) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

func decodeU32(b []byte) []uint32 {
	out := make([]uint32, len(b)/storage.EntryBytes)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*storage.EntryBytes:])
	}
	return out
}
