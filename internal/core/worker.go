package core

import (
	"fmt"
	"log"
	"os"
	"sync"
	"syscall"

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
	// active is the effective fast-path knob set after capability
	// downgrades — what workers actually run, as opposed to what Config
	// requested.
	active activeKnobs
	// hot is the shared hot-neighbor cache (nil when disabled):
	// immutable after New, so workers consult it with no
	// synchronization.
	hot *cache.Hot
	// featHot is the shared hot-node feature cache (nil when disabled).
	// When its budget affords access counters it is adaptive: the epoch
	// runner re-admits rows at epoch boundaries, so workers hold its read
	// lock across each feature stage's lookups and copies.
	featHot *cache.Hot
	// learnMu is the token of the one epoch that measures feature heat:
	// RunEpochSeeded re-admits, counts and folds only while it holds it,
	// so epochs run concurrently on one sampler stay race-free (the
	// extra ones read the cache without teaching it).
	learnMu sync.Mutex
	// defStrat is the pre-resolved Config.Strategy (uniform when
	// unset), consulted lock-free on every batch. Per-batch overrides
	// resolve through the lazily built strats registry.
	defStrat Strategy
	stratMu  sync.Mutex
	strats   map[string]Strategy
}

// activeKnobs is the resolved fast-path feature set. fixed means the
// PrepReadFixed path runs (kernel-registered on the real backend,
// emulated on pool/sim); regFiles and sqpoll are real-backend-only.
type activeKnobs struct {
	fixed    bool
	regFiles bool
	sqpoll   bool
}

// resolveKnobs intersects the requested knobs with what the backend and
// kernel grant, logging each downgrade once (at Sampler construction)
// so a benchmark never silently measures less than it claims.
func resolveKnobs(cfg *Config, backend uring.Backend, ds *storage.Dataset) activeKnobs {
	var a activeKnobs
	if backend == uring.BackendIOURing {
		caps := uring.Probe()
		a.fixed = cfg.FixedBuffers && caps.ReadFixed
		a.regFiles = cfg.RegisteredFiles && caps.RegisteredFiles
		a.sqpoll = cfg.SQPoll && caps.SQPoll
		if cfg.FixedBuffers && !caps.ReadFixed {
			log.Printf("core: fixed buffers requested but unavailable (caps %s); using plain reads", caps)
		}
		if cfg.RegisteredFiles && !caps.RegisteredFiles {
			log.Printf("core: registered files requested but unavailable (caps %s); using raw fds", caps)
		}
		if cfg.SQPoll && !caps.SQPoll {
			log.Printf("core: SQPOLL requested but unavailable (caps %s); submitting via io_uring_enter", caps)
		}
	} else {
		// Pool/sim emulate fixed-buffer validation, so that code path is
		// genuinely exercised; registered files and SQPOLL have no
		// portable equivalent and stay off (documented accept-and-ignore).
		a.fixed = cfg.FixedBuffers
	}
	if err := ds.DirectFallback(); err != nil {
		log.Printf("core: O_DIRECT requested but fell back to buffered reads: %v", err)
	}
	return a
}

// New validates the configuration and binds the engine to a ring
// backend. BackendIOURing fails fast here when the environment doesn't
// support it (callers gate on uring.Probe()). When
// Config.CacheBudgetBytes (or FeatureCacheBudgetBytes) is positive the
// corresponding hot cache is populated here, degree-first, charged
// against a memctl budget of that size. The feature cache then follows
// the measured access pattern from the second epoch on (see
// RunEpochSeeded) — unless its budget is too small to carry the
// counters, which is logged once here and leaves it degree-first.
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
	if ds.IsSharded() && !cfg.OffsetSampling {
		// Full-fetch reads every frontier node's complete list; a shard
		// only stores its owned nodes' lists, so the ablation baseline is
		// a single-node-only mode.
		return nil, fmt.Errorf("core: shard dataset %s requires OffsetSampling", ds.Dir())
	}
	s := &Sampler{ds: ds, cfg: cfg, backend: backend}
	s.active = resolveKnobs(&s.cfg, backend, ds)
	if cfg.CacheBudgetBytes > 0 {
		hot, err := cache.Build(ds, memctl.New(cfg.CacheBudgetBytes))
		if err != nil {
			return nil, fmt.Errorf("core: build hot-neighbor cache: %w", err)
		}
		s.hot = hot
	}
	if cfg.FeatureCacheBudgetBytes > 0 {
		fh, err := cache.BuildFeatures(ds, memctl.New(cfg.FeatureCacheBudgetBytes))
		if err != nil {
			return nil, fmt.Errorf("core: build hot-node feature cache: %w", err)
		}
		s.featHot = fh
		if lo, hi := ds.ShardRange(); !fh.Adaptive() && int64(fh.Nodes()) < hi-lo {
			log.Printf("core: feature cache budget %d B pins %d rows, too few to pay for per-node access counters; admission stays degree-first",
				cfg.FeatureCacheBudgetBytes, fh.Nodes())
		}
	}
	// Resolve the default strategy eagerly so a misnamed Config.Strategy
	// (or a failing weighted alias build) surfaces here, not mid-epoch.
	def, err := s.buildStrategy(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	s.defStrat = def
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

// FeatureCacheAdaptive reports whether the feature cache re-admits rows
// by measured access counts at epoch boundaries. False when the cache is
// off, pins every node, or its budget is too small for the counters.
func (s *Sampler) FeatureCacheAdaptive() bool { return s.featHot.Adaptive() }

// Worker is one sampling thread (paper Fig 3a): private rings, a
// private RNG, and private offset/neighbor/target workspaces. Workers
// share nothing, so an epoch runs them with zero synchronization.
// A Worker is not safe for concurrent use.
//
// The worker drives up to two files through identical ring machinery:
// the edge file (always) and the feature file (lazily, on the first
// feature fetch). Each gets its own rio driver; the stages never
// overlap in time — the feature stage runs only after every sampling
// layer's reads have completed — so the two drivers safely share the
// worker's arena, layer buffer, and run workspace.
type Worker struct {
	s     *Sampler
	id    int
	rng   sample.RNG
	stats IOStats

	// edge drives reads against the edge file; feat against the feature
	// file (feat.ring stays nil until ensureFeat).
	edge rio
	feat rio

	// broken marks a worker one of whose rings may still hold
	// completions that could not be drained. SampleBatch refuses such a
	// worker.
	broken bool

	// Fast-path state, fixed at construction.
	depth int    // max in-flight requests per rio (from Config.Depth; 0 = ring-bounded)
	arena []byte // registered fixed-buffer arena (nil when fixed is off)

	// bufFixed records that the current layer buffer is the arena
	// prefix, so (buffered-path) reads into it may use PrepReadFixed.
	bufFixed bool

	// Workspaces, reused across batches (paper §3.1).
	runs        []ioRun      // coalesced read requests (edge entries or feature records)
	frontier    []uint32     // target workspace (strategies rebuild it between layers)
	featNodes   []uint32     // feature stage: batch node-union accumulation
	sortTmp     []uint32     // radix scratch of the frontier and node-union sort+dedup
	buf         []byte       // current stage buffer (arena prefix or heapBuf)
	heapBuf     []byte       // heap backing for stages that skip the arena
	idxs        []int        // fanout-index scratch
	sel         []int32      // full-fetch mode: chosen in-list indices
	nodePos     []int64      // full-fetch mode: per-node buffer position
	cachedPicks []cachedPick // cache-served byte ranges awaiting copy
}

// rio is one ring-I/O driver: a ring over one file plus the in-flight
// request state needed to push coalesced entry runs through it with
// retry-with-resubmit, O_DIRECT windowing, and quarantine bookkeeping.
// The worker has one for the edge file and one for the feature file;
// they differ only in the file, its alignment, the entry stride runs
// are denominated in, and which IOStats counters completed reads land
// in (shared retry-machinery counters stay on the worker).
type rio struct {
	w          *Worker
	ring       uring.Ring
	align      int   // O_DIRECT transfer granularity (0 = buffered handle)
	entryBytes int64 // bytes per run entry (edge entry or feature record)
	entryBase  int64 // global entry index of the file's first local entry (shard datasets; 0 otherwise)

	// reads/bytesRead point at the IOStats counters this driver's
	// completed reads accumulate into (Reads/BytesRead for the edge
	// file, FeatReads/FeatBytesRead for features).
	reads     *int64
	bytesRead *int64

	// inflight counts requests submitted to the ring whose completions
	// have not been harvested yet. It persists across issue() calls
	// precisely so a failed batch can be quarantined: requests still in
	// flight when issue surfaces an error must be drained before the
	// worker samples again, or the next batch's Wait would harvest
	// stale CQEs whose IDs index into the new request table.
	inflight int
	// ringFailed records a ring-level failure (Submit/Wait error, or a
	// contract-breaking stall) during the last batch; quarantine turns
	// it into the worker's broken.
	ringFailed bool

	reqs   []ioReq // in-flight request state (retry bookkeeping)
	retryQ []int   // request IDs awaiting resubmission

	// O_DIRECT scratch slots: one aligned window buffer per in-flight
	// request, recycled through free lists so memory is bounded by the
	// pipeline depth, not the run count. Arena-backed chunks serve
	// READ_FIXED; heap slots (allocated lazily, grown to the largest
	// window they have carried) serve the rest.
	dslots    []dslot
	freeFixed []int
	freeHeap  []int
}

// dslot is one O_DIRECT scratch slot and, while a request holds it, that
// request's window: the aligned destination and the interior the run
// actually wants. Window state lives here rather than in ioReq so the
// buffered path never builds, copies or reads it.
type dslot struct {
	buf   []byte
	fixed bool // arena-backed: reads through it may use PrepReadFixed

	win      []byte // aligned window destination, a prefix of buf
	wStart   int64  // aligned window start offset
	intOff   int64  // interior: first byte the run wants
	intLen   int64  // interior length
	devBytes int64  // device bytes delivered for this request so far
}

// directChunkBytes is the size of each arena-backed O_DIRECT scratch
// chunk: covers a 4096-aligned window over any offset-mode run with
// room to spare; bigger windows (full-fetch lists) fall back to heap
// slots and plain reads.
const directChunkBytes = 16 << 10

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

// ioRun is one coalesced read: `entries` consecutive file entries
// (edge entries or feature records, per the issuing rio's stride)
// starting at entry index `entryStart`, landing at byte `bufPos` of
// the stage buffer.
type ioRun struct {
	entryStart int64
	entries    int32
	bufPos     int64
}

// ioReq is the live state of run i while it is in flight: the byte
// range still outstanding (which shrinks as short-read prefixes land)
// and how many retries it has consumed — 32 bytes, everything a
// buffered read needs. On the O_DIRECT path the outstanding range is
// the aligned window of the scratch slot the request holds (slot >= 0),
// whose dslot remembers the interior the run actually wants; offsets
// stay aligned across resubmission by rounding progress down.
type ioReq struct {
	off      int64 // next file byte offset to read
	bufPos   int64 // write position in the stage buffer (interior pos)
	remain   int64 // bytes still outstanding
	attempts int32
	slot     int32 // O_DIRECT scratch slot held (-1: buffered, or released)
}

// NewWorker creates worker `id` with its own edge ring (and, when the
// fixed knob is active, its own registered arena). Distinct ids sample
// independent streams; equal (Seed, id) pairs sample bit-identically.
func (s *Sampler) NewWorker(id int) (*Worker, error) {
	w := &Worker{
		s:     s,
		id:    id,
		rng:   sample.NewRNG(sample.Mix(s.cfg.Seed, uint64(id))),
		depth: s.cfg.Depth,
	}
	if s.active.fixed {
		arenaBytes := s.cfg.ArenaBytes
		if arenaBytes == 0 {
			arenaBytes = DefaultArenaBytes
		}
		// 4096-aligned so arena-backed slices satisfy any O_DIRECT
		// granularity the dataset probe settled on.
		w.arena = storage.AlignedSlice(int(arenaBytes), 4096)
	}
	ring, err := w.openRing(s.ds.File())
	if err != nil {
		return nil, err
	}
	w.edge = rio{
		w: w, ring: ring,
		align:      s.ds.DirectAlign(),
		entryBytes: storage.EntryBytes,
		entryBase:  s.ds.EntryBase(),
		reads:      &w.stats.Reads,
		bytesRead:  &w.stats.BytesRead,
	}
	w.edge.initSlots()
	w.stats.ActiveFixed = s.active.fixed
	w.stats.ActiveRegFiles = s.active.regFiles
	w.stats.ActiveSQPoll = s.active.sqpoll
	w.stats.ActiveODirect = w.edge.align > 0
	return w, nil
}

// openRing builds one worker ring over f with the sampler's resolved
// options (arena registration, registered file, SQPOLL) and applies the
// WrapRing hook. Used for the edge ring at construction and the feature
// ring on first feature fetch.
func (w *Worker) openRing(f *os.File) (uring.Ring, error) {
	s := w.s
	opts := uring.Options{
		Entries:      s.cfg.RingSize,
		RegisterFile: s.active.regFiles,
		SQPoll:       s.active.sqpoll,
	}
	if w.arena != nil {
		opts.FixedBuffers = [][]byte{w.arena}
	}
	ring, err := uring.NewWith(s.backend, f, opts)
	if err != nil {
		return nil, err
	}
	if s.cfg.WrapRing != nil {
		wrapped, werr := s.cfg.WrapRing(ring, w.id)
		if werr != nil {
			// Close the inner ring, not the hook's return value — a
			// failing hook typically returns nil.
			ring.Close()
			return nil, fmt.Errorf("core: wrap worker %d ring: %w", w.id, werr)
		}
		ring = wrapped
	}
	return ring, nil
}

// initSlots pre-partitions the worker arena into O_DIRECT scratch
// chunks for this driver; the arena then serves windows instead of
// stage buffers. No-op for buffered handles.
func (r *rio) initSlots() {
	w := r.w
	if r.align == 0 || w.arena == nil {
		return
	}
	for off := 0; off+directChunkBytes <= len(w.arena); off += directChunkBytes {
		r.dslots = append(r.dslots, dslot{buf: w.arena[off : off+directChunkBytes], fixed: true})
	}
}

// ensureFeat lazily opens the worker's feature ring. Lazy so workers on
// featureful datasets cost nothing extra until a batch actually wants
// features.
func (w *Worker) ensureFeat() error {
	if w.feat.ring != nil {
		return nil
	}
	ds := w.s.ds
	if !ds.HasFeatures() {
		return fmt.Errorf("core: dataset %s has no feature file", ds.Dir())
	}
	ring, err := w.openRing(ds.FeatureFile())
	if err != nil {
		return fmt.Errorf("core: worker %d feature ring: %w", w.id, err)
	}
	featBase, _ := ds.ShardRange()
	w.feat = rio{
		w: w, ring: ring,
		align:      ds.FeatureAlign(),
		entryBytes: ds.FeatureStride(),
		entryBase:  featBase,
		reads:      &w.stats.FeatReads,
		bytesRead:  &w.stats.FeatBytesRead,
	}
	w.feat.initSlots()
	if w.feat.align > 0 {
		w.stats.ActiveODirect = true
	}
	return nil
}

// Close releases the worker's rings.
func (w *Worker) Close() error {
	err := w.edge.ring.Close()
	if w.feat.ring != nil {
		if ferr := w.feat.ring.Close(); err == nil {
			err = ferr
		}
	}
	return err
}

// IOStats returns the worker's accumulated ring-level I/O counters,
// with each ring's own syscall counters folded in when the backend
// reports them.
func (w *Worker) IOStats() IOStats {
	st := w.stats
	for _, ring := range []uring.Ring{w.edge.ring, w.feat.ring} {
		if ring == nil {
			continue
		}
		if sr, ok := ring.(uring.SyscallReporter); ok {
			sys := sr.Syscalls()
			st.SubmitSyscalls += sys.Submits
			st.WaitSyscalls += sys.Waits
		}
	}
	return st
}

// Broken reports whether one of the worker's rings could not be proven
// empty after a failed batch (see ErrWorkerBroken). Pools that lease
// workers across requests use it to retire a worker eagerly instead of
// discovering the refusal on the next SampleBatch.
func (w *Worker) Broken() bool { return w.broken }

// SampleBatchSeeded reseeds the worker's RNG to NewRNG(seed) and then
// samples one mini-batch. This is the epoch runner's path to
// thread-count invariance: the sample set becomes a pure function of
// (dataset, config, seed) — independent of which worker runs the batch
// and of how many workers exist — where SampleBatch continues the
// worker's rolling per-(Seed, id) stream.
func (w *Worker) SampleBatchSeeded(targets []uint32, seed uint64) (*Batch, error) {
	w.rng.Reseed(seed)
	return w.sampleBatch(targets, w.s.cfg.Fanouts, w.s.cfg.FetchFeatures, w.s.defStrat)
}

// SampleBatchFanouts reseeds the RNG and samples one mini-batch with
// per-call fanouts overriding the engine config — the serving layer's
// path: one leased worker serves requests with heterogeneous fanouts
// back to back, and the explicit reseed keeps each request's samples a
// pure function of (dataset, targets, fanouts, seed), independent of
// what the worker ran before.
func (w *Worker) SampleBatchFanouts(targets []uint32, fanouts []int, seed uint64) (*Batch, error) {
	return w.SampleBatchOpts(targets, BatchOpts{Fanouts: fanouts, Seed: seed})
}

// BatchOpts parameterizes one SampleBatchOpts call.
type BatchOpts struct {
	// Fanouts overrides the engine config's per-layer sample counts.
	// Must be non-empty.
	Fanouts []int
	// Seed reseeds the worker RNG before sampling (see
	// SampleBatchFanouts).
	Seed uint64
	// Features runs the feature stage for this batch even when
	// Config.FetchFeatures is off — the serving layer's per-request
	// switch.
	Features bool
	// Strategy names the draw strategy for this batch, overriding
	// Config.Strategy; empty falls through to the engine default. The
	// serving layer validates names before queueing (ValidStrategy), so
	// an unknown name here is a programming error surfaced per batch.
	Strategy string
}

// SampleBatchOpts is SampleBatchFanouts with the full option set,
// including a per-call feature-stage switch.
func (w *Worker) SampleBatchOpts(targets []uint32, o BatchOpts) (*Batch, error) {
	if len(o.Fanouts) == 0 {
		return nil, fmt.Errorf("core: sample batch needs at least one fanout layer")
	}
	for i, f := range o.Fanouts {
		if f <= 0 {
			return nil, fmt.Errorf("core: fanout[%d] = %d must be positive", i, f)
		}
	}
	strat, err := w.s.strategyFor(o.Strategy)
	if err != nil {
		return nil, err
	}
	w.rng.Reseed(o.Seed)
	return w.sampleBatch(targets, o.Fanouts, o.Features || w.s.cfg.FetchFeatures, strat)
}

// SampleBatch samples the configured fanout layers for one mini-batch
// of target nodes and returns the per-layer results. All sampling
// decisions are made before any I/O is issued; what crosses the
// storage boundary depends on the config's OffsetSampling switch.
func (w *Worker) SampleBatch(targets []uint32) (*Batch, error) {
	return w.sampleBatch(targets, w.s.cfg.Fanouts, w.s.cfg.FetchFeatures, w.s.defStrat)
}

func (w *Worker) sampleBatch(targets []uint32, fanouts []int, features bool, strat Strategy) (*Batch, error) {
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
	cfg := &w.s.cfg
	batch := &Batch{Layers: make([]Layer, len(fanouts))}
	w.frontier = append(w.frontier[:0], targets...)
	for li, fanout := range fanouts {
		layer := &batch.Layers[li]
		fan := strat.LayerFanout(li, fanout)
		if cfg.OffsetSampling {
			if err := w.sampleLayerOffset(layer, fan, strat); err != nil {
				return nil, err
			}
		} else {
			if err := w.sampleLayerFull(layer, fan, strat); err != nil {
				return nil, err
			}
		}
		// Between-layer frontier build (paper §2.1): the strategy turns
		// the sampled neighbors into the next layer's targets — sorted
		// and dedup'd for neighbor sampling, kept verbatim for walks.
		// layer.Targets holds its own copy, so reusing the frontier
		// workspace as the destination is safe.
		w.frontier = strat.NextFrontier(layer, w.frontier, &w.sortTmp)
	}
	if features {
		if err := w.fetchBatchFeatures(batch); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// sampleLayerOffset is the paper's path: draw fanout entry indices
// from each node's offset range, coalesce adjacent picks into runs,
// and read exactly those entries. Cached nodes are served from the
// hot-neighbor cache instead of planning runs — the strategy's draws
// happen first either way, so RNG consumption (and therefore the
// sampled set) is identical with the cache on or off.
func (w *Worker) sampleLayerOffset(layer *Layer, fanout int, strat Strategy) error {
	ds := w.s.ds
	hot := w.s.hot
	sharded := ds.IsSharded()
	layer.Targets = append([]uint32(nil), w.frontier...)
	layer.Starts = make([]int64, len(w.frontier)+1)
	w.runs = w.runs[:0]
	w.cachedPicks = w.cachedPicks[:0]
	var total int64
	for i, v := range w.frontier {
		layer.Starts[i] = total
		st, en := ds.Range(v)
		deg := int(en - st)
		if deg == 0 {
			continue
		}
		k := fanout
		if deg < k {
			k = deg
		}
		w.idxs = strat.Draw(&w.rng, v, deg, k, w.idxs[:0])
		if sharded && !ds.Owns(v) {
			// Non-owned node on a shard: the draws above already consumed
			// the exact RNG stream (degrees come from the global offset
			// index), but the neighbor bytes live on another shard.
			// Zero-fill the span so Starts stay layout-identical; the
			// router overlays the owning shard's bytes (DESIGN.md §12).
			for range w.idxs {
				w.cachedPicks = append(w.cachedPicks, cachedPick{
					bufPos: total * storage.EntryBytes,
					src:    zeroEntry,
				})
				total++
			}
			continue
		}
		if nb := hot.Lookup(v); nb != nil {
			for _, idx := range w.idxs {
				w.cachedPicks = append(w.cachedPicks, cachedPick{
					bufPos: total * storage.EntryBytes,
					src:    nb[idx*storage.EntryBytes : (idx+1)*storage.EntryBytes],
				})
				total++
			}
			w.stats.CacheHits++
			w.stats.CacheBytes += int64(k) * storage.EntryBytes
			continue
		}
		if hot != nil {
			w.stats.CacheMisses++
		}
		for _, idx := range w.idxs {
			abs := st + int64(idx)
			// Coalesce only when the pick is adjacent in the edge file AND
			// in the layer buffer. A cache hit advances `total` without
			// appending a run, so file adjacency alone would merge a
			// post-hit pick into a pre-hit run and land its bytes over the
			// cached node's slots.
			if n := len(w.runs); n > 0 &&
				w.runs[n-1].entryStart+int64(w.runs[n-1].entries) == abs &&
				w.runs[n-1].bufPos+int64(w.runs[n-1].entries)*storage.EntryBytes == total*storage.EntryBytes {
				w.runs[n-1].entries++
			} else {
				w.runs = append(w.runs, ioRun{entryStart: abs, entries: 1, bufPos: total * storage.EntryBytes})
			}
			total++
		}
	}
	layer.Starts[len(w.frontier)] = total
	w.sizeBuf(total*storage.EntryBytes, w.edge.align)
	w.copyCached()
	if err := w.edge.issue(w.runs, w.buf); err != nil {
		return err
	}
	// Runs were planned in frontier order with sequential buffer
	// positions, so the buffer is exactly the concatenated sampled
	// neighbors.
	layer.Neighbors = decodeU32(w.buf[:total*storage.EntryBytes])
	return nil
}

// sampleLayerFull is the ablation baseline (prior out-of-core
// systems, §2.2.1): fetch every node's complete neighbor list, then
// sample in memory. The fanout indices are drawn identically to the
// offset path — the two modes produce the same sample sets and differ
// only in what crosses the storage boundary.
func (w *Worker) sampleLayerFull(layer *Layer, fanout int, strat Strategy) error {
	ds := w.s.ds
	hot := w.s.hot
	layer.Targets = append([]uint32(nil), w.frontier...)
	layer.Starts = make([]int64, len(w.frontier)+1)
	w.runs = w.runs[:0]
	w.sel = w.sel[:0]
	w.nodePos = w.nodePos[:0]
	w.cachedPicks = w.cachedPicks[:0]
	var total, listBytes int64
	for i, v := range w.frontier {
		layer.Starts[i] = total
		w.nodePos = append(w.nodePos, listBytes)
		st, en := ds.Range(v)
		deg := int(en - st)
		if deg == 0 {
			continue
		}
		k := fanout
		if deg < k {
			k = deg
		}
		w.idxs = strat.Draw(&w.rng, v, deg, k, w.idxs[:0])
		for _, idx := range w.idxs {
			w.sel = append(w.sel, int32(idx))
		}
		total += int64(k)
		if nb := hot.Lookup(v); nb != nil {
			// Cache hit: the whole list lands at its planned buffer
			// position from memory; the in-memory selection below is
			// untouched.
			w.cachedPicks = append(w.cachedPicks, cachedPick{bufPos: listBytes, src: nb})
			w.stats.CacheHits++
			w.stats.CacheBytes += int64(deg) * storage.EntryBytes
		} else {
			if hot != nil {
				w.stats.CacheMisses++
			}
			w.runs = append(w.runs, ioRun{entryStart: st, entries: int32(deg), bufPos: listBytes})
		}
		listBytes += int64(deg) * storage.EntryBytes
	}
	layer.Starts[len(w.frontier)] = total
	w.sizeBuf(listBytes, w.edge.align)
	w.copyCached()
	if err := w.edge.issue(w.runs, w.buf); err != nil {
		return err
	}
	layer.Neighbors = make([]uint32, 0, total)
	si := 0
	for i := range layer.Targets {
		k := int(layer.Starts[i+1] - layer.Starts[i])
		pos := w.nodePos[i]
		for _, idx := range w.sel[si : si+k] {
			off := pos + int64(idx)*storage.EntryBytes
			layer.Neighbors = append(layer.Neighbors, leU32(w.buf[off:]))
		}
		si += k
	}
	return nil
}

// fetchBatchFeatures runs the post-draw feature stage: collect the
// batch's node union (layer-0 targets plus every layer's sampled
// neighbors — deeper layers' targets are subsets of earlier neighbors),
// sort+dedup it, and fetch one vector per node through the feature
// ring. Runs strictly after all sampling layers, so it can never
// perturb the sampled node set.
func (w *Worker) fetchBatchFeatures(b *Batch) error {
	w.featNodes = w.featNodes[:0]
	for li := range b.Layers {
		if li == 0 {
			w.featNodes = append(w.featNodes, b.Layers[li].Targets...)
		}
		w.featNodes = append(w.featNodes, b.Layers[li].Neighbors...)
	}
	b.FeatNodes = append([]uint32(nil), sample.SortDedupScratch(w.featNodes, &w.sortTmp)...)
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
// Like SampleBatch it refuses a broken worker.
func (w *Worker) FetchFeatures(nodes []uint32) ([]byte, error) {
	if w.broken {
		return nil, fmt.Errorf("core: worker %d: %w", w.id, ErrWorkerBroken)
	}
	return w.featuresFor(nodes)
}

// featuresFor plans and issues the feature reads for nodes: cached
// vectors are served from the feature cache, the rest are coalesced
// into runs of file-adjacent records — subject to the same
// file-AND-buffer adjacency rule as the edge path, because a cache hit
// advances the buffer position without appending a run — and issued
// through the feature rio with full retry/quarantine handling.
func (w *Worker) featuresFor(nodes []uint32) ([]byte, error) {
	ds := w.s.ds
	if !ds.HasFeatures() {
		return nil, fmt.Errorf("core: dataset %s has no feature file", ds.Dir())
	}
	if err := w.ensureFeat(); err != nil {
		return nil, err
	}
	total, err := w.planFeatures(nodes)
	if err != nil {
		return nil, err
	}
	if err := w.feat.issue(w.runs, w.buf); err != nil {
		return nil, err
	}
	// One pass: appending to an empty slice allocates without zero-filling
	// the bytes the copy is about to overwrite.
	return append([]byte{}, w.buf[:total]...), nil
}

// planFeatures is featuresFor's memory half: it plans the runs of the
// uncached nodes, sizes the stage buffer and lands the cached vectors in
// it, returning the stage's byte count. The feature cache's read lock is
// held once across all of it — the lookups and the copies out of the
// rows they returned — so an epoch-boundary re-admission can never swap
// a row under a stage.
func (w *Worker) planFeatures(nodes []uint32) (int64, error) {
	stride := w.feat.entryBytes
	// On a shard dataset only the owned range's vectors are present;
	// the router scatters feature fetches by ownership, so a non-owned
	// node here is a caller bug, rejected before any I/O. Unsharded,
	// the range is [0, NumNodes) and this is the plain bounds check.
	ownLo, ownHi := w.s.ds.ShardRange()
	hot := w.s.featHot
	hot.RLock()
	defer hot.RUnlock()
	w.runs = w.runs[:0]
	w.cachedPicks = w.cachedPicks[:0]
	var total int64
	for _, v := range nodes {
		if int64(v) < ownLo || int64(v) >= ownHi {
			return 0, fmt.Errorf("core: feature fetch for node %d outside [%d,%d)", v, ownLo, ownHi)
		}
		if fb := hot.Lookup(v); fb != nil {
			w.cachedPicks = append(w.cachedPicks, cachedPick{bufPos: total * stride, src: fb})
			w.stats.FeatCacheHits++
			w.stats.FeatCacheBytes += stride
			total++
			continue
		}
		if hot != nil {
			w.stats.FeatCacheMisses++
		}
		if n := len(w.runs); n > 0 &&
			w.runs[n-1].entryStart+int64(w.runs[n-1].entries) == int64(v) &&
			w.runs[n-1].bufPos+int64(w.runs[n-1].entries)*stride == total*stride {
			w.runs[n-1].entries++
		} else {
			w.runs = append(w.runs, ioRun{entryStart: int64(v), entries: 1, bufPos: total * stride})
		}
		total++
	}
	w.sizeBuf(total*stride, w.feat.align)
	w.copyCached()
	return total * stride, nil
}

// issue drives the planned reads through this driver's ring. With the
// asynchronous pipeline (paper Fig 3b) it keeps preparing and
// submitting further requests while earlier completions drain; the
// synchronous ablation waits for every in-flight request before
// staging more.
//
// Transient results are absorbed here rather than failing the batch:
// -EINTR/-EAGAIN resubmit the request verbatim and a short read
// resubmits exactly the remaining byte range (short-read prefixes are
// kept — they may split an entry or a feature vector mid-way, which
// byte-granular resubmission handles). Each request has a bounded retry
// budget (Config.MaxIORetries); exhaustion, or any non-retryable errno,
// surfaces as a structured *IOError.
//
// A failed batch may leave requests in flight; they are quarantined
// here — their completions drained and discarded, on BOTH of the
// worker's rings — before the error is surfaced, because a stale CQE
// harvested by the NEXT batch would be routed by its ID into that
// batch's request table: silent buffer and accounting corruption. If
// the drain itself fails the worker is marked broken and refuses
// further batches.
func (r *rio) issue(runs []ioRun, buf []byte) error {
	err := r.issueReads(runs, buf)
	if err != nil {
		r.w.quarantine()
	}
	return err
}

// quarantine harvests and discards the completions of requests still in
// flight after a failed batch, on both rings. A ring that errors, or
// stops producing completions it owes, cannot be proven empty — the
// worker is marked broken so SampleBatch refuses to reuse it.
func (w *Worker) quarantine() {
	w.edge.drain()
	w.feat.drain()
}

// drain empties this driver's in-flight window (see quarantine).
func (r *rio) drain() {
	if r.ring == nil {
		return
	}
	for r.inflight > 0 {
		cqes, err := r.ring.Wait(r.inflight)
		if err != nil || len(cqes) == 0 {
			r.ringFailed = true
			break
		}
		r.inflight -= len(cqes)
		r.w.stats.StaleDrained += int64(len(cqes))
	}
	if r.ringFailed {
		r.w.broken = true
	}
}

// issueReads is issue's submission/completion loop. On error return,
// r.inflight counts exactly the requests still in flight in the ring
// (already-harvested completions are accounted before processing), and
// r.ringFailed records whether the ring itself failed — the state
// quarantine needs to clean up safely.
//
// Submission is deep by default: each pass stages every request the
// ring (and Config.Depth, when set) will take — fresh runs and retries
// alike — and publishes them with ONE Submit, so a full pipeline costs
// one io_uring_enter for many coalesced runs. On the completion side,
// while more work is waiting to be staged the pass reaps up to half the
// in-flight window in one blocking Wait (reap-many) instead of waking
// per completion; once everything is staged it degrades to min=1 so the
// tail drains with maximum overlap.
func (r *rio) issueReads(runs []ioRun, buf []byte) error {
	w := r.w
	async := w.s.cfg.AsyncPipeline
	maxRetries := w.s.cfg.MaxIORetries
	if cap(r.reqs) < len(runs) {
		r.reqs = make([]ioReq, len(runs))
	}
	r.reqs = r.reqs[:len(runs)]
	r.retryQ = r.retryQ[:0]
	r.resetSlots()
	next, completed := 0, 0
	for completed < len(runs) {
		staged := 0
		// Resubmissions first: their buffer ranges block stage decode.
		for len(r.retryQ) > 0 && r.withinDepth(staged) {
			if !r.prepReq(r.retryQ[0], buf) {
				break
			}
			r.retryQ = r.retryQ[1:]
			staged++
		}
		if len(r.retryQ) == 0 {
			for next < len(runs) && r.withinDepth(staged) {
				if !r.stageNew(next, runs, buf) {
					break
				}
				next++
				staged++
			}
		}
		if staged > 0 {
			if _, err := r.ring.Submit(); err != nil {
				// Unknown how many staged requests were published; the
				// ring cannot be proven empty again.
				r.ringFailed = true
				return err
			}
			r.inflight += staged
		}
		min := 1
		if !async {
			min = r.inflight
		} else if (len(r.retryQ) > 0 || next < len(runs)) && r.inflight > 1 {
			// Saturated: more work wants in. Reap half the window in one
			// blocking call so the refill batches are deep too.
			min = r.inflight / 2
		}
		cqes, err := r.ring.Wait(min)
		if err != nil {
			r.ringFailed = true
			return err
		}
		// Everything Wait returned has left the ring, whether or not the
		// loop below errors out mid-way — account for it up front so
		// quarantine sees the true in-flight count.
		r.inflight -= len(cqes)
		for _, c := range cqes {
			rq := &r.reqs[c.ID]
			switch {
			case c.Res < 0:
				errno := syscall.Errno(-c.Res)
				if !transientErrno(errno) {
					return &IOError{Offset: rq.off, Bytes: rq.remain, Attempts: int(rq.attempts), Errno: errno}
				}
				w.stats.TransientErrs++
				if int(rq.attempts) >= maxRetries {
					return &IOError{Offset: rq.off, Bytes: rq.remain, Attempts: int(rq.attempts), Errno: errno}
				}
				rq.attempts++
				w.stats.Retries++
				r.retryQ = append(r.retryQ, int(c.ID))
			case int64(c.Res) > rq.remain:
				return fmt.Errorf("core: overlong read at offset %d: got %d bytes, want %d",
					rq.off, c.Res, rq.remain)
			case rq.slot >= 0:
				done, err := r.completeDirect(int(c.ID), rq, int64(c.Res), buf, maxRetries)
				if err != nil {
					return err
				}
				if done {
					completed++
				}
			case int64(c.Res) == rq.remain:
				*r.reads++
				*r.bytesRead += int64(c.Res)
				if w.bufFixed {
					w.stats.FixedReads++
				}
				completed++
			default:
				// Short read: the prefix is valid — advance the request
				// window and resubmit only the tail.
				w.stats.ShortReads++
				*r.bytesRead += int64(c.Res)
				rq.off += int64(c.Res)
				rq.bufPos += int64(c.Res)
				rq.remain -= int64(c.Res)
				if int(rq.attempts) >= maxRetries {
					return &IOError{Offset: rq.off, Bytes: rq.remain, Attempts: int(rq.attempts), ShortRead: true}
				}
				rq.attempts++
				w.stats.Retries++
				r.retryQ = append(r.retryQ, int(c.ID))
			}
		}
		// Stall guard: with nothing staged, nothing in flight and no
		// completions drained, the next iteration would replay this one
		// verbatim — a ring violating the never-refuse-while-idle
		// contract must surface as an error, not an infinite spin.
		if staged == 0 && r.inflight == 0 && len(cqes) == 0 {
			r.ringFailed = true
			return fmt.Errorf("core: %d of %d reads complete, %d awaiting retry: %w",
				completed, len(runs), len(r.retryQ), ErrRingStalled)
		}
	}
	return nil
}

// withinDepth reports whether one more request may be staged under the
// configured in-flight cap.
func (r *rio) withinDepth(staged int) bool {
	return r.w.depth <= 0 || r.inflight+staged < r.w.depth
}

// stageNew initializes request id from its run and stages it. On the
// O_DIRECT path the request reads the aligned window around the run
// into a scratch slot; the interior is copied out at completion. The
// slot is released again if the ring refuses the prep, so re-staging
// the same id later starts clean.
func (r *rio) stageNew(id int, runs []ioRun, buf []byte) bool {
	run := &runs[id]
	// Runs are planned in GLOBAL entry coordinates; on a shard dataset
	// the local file starts at entryBase, so the file offset subtracts it
	// (zero when unsharded). The planner only emits runs for owned nodes.
	intOff := (run.entryStart - r.entryBase) * r.entryBytes
	intLen := int64(run.entries) * r.entryBytes
	rq := &r.reqs[id]
	if r.align == 0 {
		*rq = ioReq{off: intOff, bufPos: run.bufPos, remain: intLen, slot: -1}
		return r.prepReq(id, buf)
	}
	lo := storage.AlignDown(intOff, r.align)
	win := storage.AlignUp(intOff+intLen, r.align) - lo
	slot := r.getSlot(int(win))
	ds := &r.dslots[slot]
	ds.wStart, ds.intOff, ds.intLen, ds.devBytes = lo, intOff, intLen, 0
	*rq = ioReq{off: lo, bufPos: run.bufPos, remain: win, slot: int32(slot)}
	if !r.prepReq(id, buf) {
		r.putSlot(slot)
		rq.slot = -1
		return false
	}
	return true
}

// prepReq stages request id's outstanding byte range into the ring: the
// stage buffer through the worker's prep flavor on the buffered path,
// the held slot's aligned window through the slot's on the direct path.
func (r *rio) prepReq(id int, buf []byte) bool {
	rq := &r.reqs[id]
	dst, fixed := buf, r.w.bufFixed
	pos := rq.bufPos
	if rq.slot >= 0 {
		ds := &r.dslots[rq.slot]
		dst, fixed, pos = ds.win, ds.fixed, rq.off-ds.wStart
	}
	dst = dst[pos : pos+rq.remain]
	if fixed {
		return r.ring.PrepReadFixed(uint64(id), rq.off, dst, 0)
	}
	return r.ring.PrepRead(uint64(id), rq.off, dst)
}

// completeDirect handles a non-negative completion of an O_DIRECT
// window request. The request is done as soon as the delivered bytes
// cover the interior — which an EOF-straddling tail window reaches with
// a short count, since the window's aligned end may lie past the file
// end while the interior never does. A short count that leaves interior
// bytes uncovered resubmits from the progress rounded DOWN to the
// alignment (re-reading the partial block) so the resumed offset stays
// O_DIRECT-legal.
func (r *rio) completeDirect(id int, rq *ioReq, got int64, buf []byte, maxRetries int) (bool, error) {
	w := r.w
	ds := &r.dslots[rq.slot]
	ds.devBytes += got
	covered := rq.off + got // absolute file position delivered through
	if covered >= ds.intOff+ds.intLen {
		copy(buf[rq.bufPos:rq.bufPos+ds.intLen], ds.win[ds.intOff-ds.wStart:])
		*r.reads++
		*r.bytesRead += ds.intLen
		w.stats.AlignSlackBytes += ds.devBytes - ds.intLen
		if ds.fixed {
			w.stats.FixedReads++
		}
		r.putSlot(int(rq.slot))
		rq.slot = -1
		return true, nil
	}
	// Short of the interior: resubmit the rest of the window from an
	// aligned resume point.
	w.stats.ShortReads++
	if int(rq.attempts) >= maxRetries {
		return false, &IOError{Offset: covered, Bytes: ds.intOff + ds.intLen - covered, Attempts: int(rq.attempts), ShortRead: true}
	}
	rq.attempts++
	w.stats.Retries++
	wEnd := ds.wStart + int64(len(ds.win))
	rq.off = storage.AlignDown(covered, r.align)
	rq.remain = wEnd - rq.off
	r.retryQ = append(r.retryQ, id)
	return false, nil
}

// sizeBuf points w.buf at a stage buffer of n bytes: the registered
// arena when the fixed knob is on, the buffer fits, and the issuing
// file handle is buffered (O_DIRECT stages read through scratch windows
// instead, and the arena serves those); otherwise a heap workspace,
// with plain reads.
func (w *Worker) sizeBuf(n int64, align int) {
	if w.arena != nil && align == 0 && n <= int64(len(w.arena)) {
		w.buf = w.arena[:n]
		w.bufFixed = true
		return
	}
	w.heapBuf = grow(w.heapBuf, n)
	w.buf = w.heapBuf
	w.bufFixed = false
}

// resetSlots returns every O_DIRECT scratch slot to its free list.
// Called at the top of each issue pass: any slot still marked held at
// that point belonged to a failed batch whose in-flight requests were
// quarantined, so reclaiming wholesale is safe.
func (r *rio) resetSlots() {
	if r.align == 0 {
		return
	}
	r.freeFixed = r.freeFixed[:0]
	r.freeHeap = r.freeHeap[:0]
	for i := range r.dslots {
		if r.dslots[i].fixed {
			r.freeFixed = append(r.freeFixed, i)
		} else {
			r.freeHeap = append(r.freeHeap, i)
		}
	}
}

// getSlot leases a scratch slot and points its window at win aligned
// bytes, preferring arena-backed (fixed) chunks. Heap slots grow to the
// largest window they have carried and are reused; total slot count is
// bounded by the in-flight cap, never the run count.
func (r *rio) getSlot(win int) int {
	var slot int
	switch {
	case win <= directChunkBytes && len(r.freeFixed) > 0:
		slot = r.freeFixed[len(r.freeFixed)-1]
		r.freeFixed = r.freeFixed[:len(r.freeFixed)-1]
	case len(r.freeHeap) > 0:
		slot = r.freeHeap[len(r.freeHeap)-1]
		r.freeHeap = r.freeHeap[:len(r.freeHeap)-1]
		if len(r.dslots[slot].buf) < win {
			r.dslots[slot].buf = storage.AlignedSlice(win, r.align)
		}
	default:
		slot = len(r.dslots)
		r.dslots = append(r.dslots, dslot{buf: storage.AlignedSlice(win, r.align)})
	}
	r.dslots[slot].win = r.dslots[slot].buf[:win]
	return slot
}

// putSlot returns a leased slot to its free list.
func (r *rio) putSlot(slot int) {
	if r.dslots[slot].fixed {
		r.freeFixed = append(r.freeFixed, slot)
	} else {
		r.freeHeap = append(r.freeHeap, slot)
	}
}

// copyCached lands every cache-served byte range in the (now sized)
// stage buffer. Cached ranges and planned runs are disjoint, so order
// relative to issue does not matter.
func (w *Worker) copyCached() {
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
		out[i] = leU32(b[i*storage.EntryBytes:])
	}
	return out
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
