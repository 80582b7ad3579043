package core

import (
	"slices"
	"testing"

	"ringsampler/internal/cache"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// Integration tests for the hot-neighbor cache (Config.CacheBudgetBytes):
// the cache may only change where bytes come from, never which bytes are
// sampled. Digests must be identical at every budget, on every backend,
// at every thread count — and device traffic
// must shrink monotonically as the budget grows (the prefix-rule
// guarantee).

var cacheBudgets = []int64{0, 16 << 10, 64 << 10, 1 << 30}

// TestCacheDigestInvariance: one batch, every backend × budget, all
// byte-identical to the cache-off run on the same backend.
func TestCacheDigestInvariance(t *testing.T) {
	ds := testDataset(t)
	backends := []uring.Backend{uring.BackendPool, uring.BackendSim}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	} else {
		t.Log("io_uring unavailable; real backend skipped")
	}
	targets := testTargets(ds, 128)
	for _, be := range backends {
		var ref *Batch
		for _, budget := range cacheBudgets {
			cfg := DefaultConfig()
			cfg.Seed = 21
			cfg.CacheBudgetBytes = budget
			s, err := New(ds, cfg, be)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.NewWorker(0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.SampleBatchOpts(targets, BatchOpts{Seed: sample.Mix(cfg.Seed, 0)})
			if err != nil {
				t.Fatalf("backend=%v budget=%d: %v", be, budget, err)
			}
			st := w.IOStats()
			w.Close()
			if budget > 0 && st.CacheHits == 0 {
				t.Fatalf("backend=%v budget=%d: no cache hits — budget too small to prove anything", be, budget)
			}
			if budget == 0 && (st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheBytes != 0) {
				t.Fatalf("cache-off run reported cache traffic: %+v", st)
			}
			if ref == nil {
				ref = b
				continue
			}
			assertBatchesEqual(t, ref, b, "cache-off/cache-on")
		}
	}
}

// TestCacheAdversarialTargetOrder pins the byte-identical-cache
// guarantee for arbitrary (unsorted, duplicated) target order.
// Regression: run coalescing used to check only edge-file adjacency, so
// with targets [A, hub, A+1] — A and A+1 file-adjacent non-cached nodes,
// hub cached between them — A+1's picks were merged into A's run and
// written at A's buffer tail, overwriting the hub's cached bytes and
// leaving A+1's slots stale. Layer-0 targets arrive in caller order
// (the sorted deeper-layer frontiers masked this), so the trigger is
// built explicitly: fanout ≥ degree makes every entry of A and A+1 a
// pick, guaranteeing the file-adjacency the old condition mis-merged.
func TestCacheAdversarialTargetOrder(t *testing.T) {
	ds := testDataset(t)
	const fanout = 32
	cfg := DefaultConfig()
	cfg.Seed = 91
	cfg.Fanouts = []int{fanout}
	cfg.CacheBudgetBytes = 16 << 10
	s, err := New(ds, cfg, uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	// A cached node (a short list: the cache pins shortest first), and a
	// file-adjacent pair of non-cached nodes with degree in [1, fanout]
	// so all their entries are picked.
	var hub uint32
	foundHub := false
	for v := int64(0); v < ds.NumNodes(); v++ {
		if s.hot.Lookup(uint32(v)) != nil {
			hub = uint32(v)
			foundHub = true
			break
		}
	}
	if !foundHub {
		t.Fatal("budget cached no nodes")
	}
	var a uint32
	foundPair := false
	for v := int64(0); v+1 < ds.NumNodes(); v++ {
		lo, hi := uint32(v), uint32(v+1)
		if s.hot.Lookup(lo) != nil || s.hot.Lookup(hi) != nil {
			continue
		}
		stA, enA := ds.Range(lo)
		stB, enB := ds.Range(hi)
		if degA, degB := enA-stA, enB-stB; degA > 0 && degA <= fanout &&
			degB > 0 && degB <= fanout && enA == stB {
			a = lo
			foundPair = true
			break
		}
	}
	if !foundPair {
		t.Fatal("no file-adjacent non-cached pair with degree ≤ fanout")
	}
	off := cfg
	off.CacheBudgetBytes = 0
	for _, targets := range [][]uint32{
		{a, hub, a + 1},
		{a, hub, a + 1, a, hub}, // duplicates interleaved with the hub
	} {
		w, err := s.NewWorker(0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.SampleBatchOpts(targets, BatchOpts{Seed: sample.Mix(cfg.Seed, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if w.IOStats().CacheHits == 0 {
			t.Fatal("hub target produced no cache hit — scenario does not exercise the hazard")
		}
		w.Close()
		so, err := New(ds, off, uring.BackendSim)
		if err != nil {
			t.Fatal(err)
		}
		wo, err := so.NewWorker(0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wo.SampleBatchOpts(targets, BatchOpts{Seed: sample.Mix(cfg.Seed, 0)})
		if err != nil {
			t.Fatal(err)
		}
		wo.Close()
		assertBatchesEqual(t, want, got, "adversarial-order cache-off/cache-on")
	}
}

// TestCacheMonotoneDeviceBytes: the prefix rule makes a larger budget's
// cached node set a superset of a smaller one's, so for a fixed
// workload, device bytes are non-increasing and cache-served bytes and
// hits (so, over a fixed lookup count, the hit rate) non-decreasing in
// the budget. The smallest budget holds exactly the degree-1 lists with
// their offsets and the rank index: shortest first, it pins all of them
// and nothing else.
func TestCacheMonotoneDeviceBytes(t *testing.T) {
	ds := testDataset(t)
	targets := testTargets(ds, 256)
	var ones int
	for v := range uint32(ds.NumNodes()) {
		if st, en := ds.Range(v); en-st == 1 {
			ones++
		}
	}
	words := (ds.NumNodes() + 63) / 64
	onesBudget := words*8 + (words+7)/8*4 + 8 + int64(ones)*(storage.EntryBytes+8)
	if ones == 0 || onesBudget >= cacheBudgets[1] {
		t.Fatalf("%d degree-1 lists under %d B: no budget between cache-off and %d B", ones, onesBudget, cacheBudgets[1])
	}
	prevDevice := int64(-1)
	prevCached := int64(-1)
	prevHits := int64(-1)
	for _, budget := range slices.Insert(slices.Clone(cacheBudgets), 1, onesBudget) {
		cfg := DefaultConfig()
		cfg.Seed = 33
		cfg.CacheBudgetBytes = budget
		s, err := New(ds, cfg, uring.BackendSim)
		if err != nil {
			t.Fatal(err)
		}
		if nodes, bytes := s.CacheInfo(); budget == onesBudget && (nodes != ones || bytes != int64(ones)*storage.EntryBytes) {
			t.Fatalf("budget %d pinned %d lists of %d B, want the %d degree-1 lists", budget, nodes, bytes, ones)
		}
		w, err := s.NewWorker(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.SampleBatchOpts(targets, BatchOpts{Seed: sample.Mix(cfg.Seed, 0)}); err != nil {
			t.Fatal(err)
		}
		st := w.IOStats()
		w.Close()
		if prevDevice >= 0 {
			if st.BytesRead > prevDevice {
				t.Fatalf("budget=%d: device bytes grew %d -> %d", budget, prevDevice, st.BytesRead)
			}
			if st.CacheBytes < prevCached || st.CacheHits < prevHits {
				t.Fatalf("budget=%d: cache bytes %d -> %d or hits %d -> %d shrank",
					budget, prevCached, st.CacheBytes, prevHits, st.CacheHits)
			}
		}
		prevDevice, prevCached, prevHits = st.BytesRead, st.CacheBytes, st.CacheHits
	}
	// The unlimited budget caches the whole edge file: zero device
	// traffic is the fixed point the sweep must reach.
	if prevDevice != 0 {
		t.Fatalf("full-cache run still read %d device bytes", prevDevice)
	}
}

// TestFeatureCacheMonotoneDeviceBytes is the same contract on the second
// budget axis: a fresh sampler's first feature epoch (before anything is
// learned, so the admission order is the degree-first prefix) yields the
// same per-batch digests — feature payloads included — at every feature
// cache budget, reads non-increasing feature bytes from the device as
// the budget grows, exactly none once every row is pinned, and never
// moves an edge byte.
func TestFeatureCacheMonotoneDeviceBytes(t *testing.T) {
	ds := openDS(t, testFeatureDatasetDir(t), false)
	targets := testTargets(ds, 256)
	n, stride := ds.NumNodes(), ds.FeatureStride()
	budgets := []struct {
		bytes int64
		rows  int // pinned rows the budget must buy
	}{
		{0, 0},
		{cache.FeatureBudget(n, stride, 1, false), 1},
		{cache.FeatureBudget(n, stride, n/4, false), int(n / 4)}, // below cache.LearnBudget
		{1 << 30, int(n)},
	}
	var ref *EpochStats
	prevDevice := int64(-1)
	for _, b := range budgets {
		cfg := DefaultConfig()
		cfg.Seed = 33
		cfg.BatchSize = 64
		cfg.Threads = 2
		cfg.FetchFeatures = true
		cfg.FeatureCacheBudgetBytes = b.bytes
		s, err := New(ds, cfg, uring.BackendPool)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := s.FeatureCacheInfo(); n != b.rows {
			t.Fatalf("budget %d pinned %d rows, want %d", b.bytes, n, b.rows)
		}
		st, err := runEpoch(s, targets, nil)
		if err != nil {
			t.Fatalf("budget %d: %v", b.bytes, err)
		}
		if ref == nil {
			ref = st
			if st.IO.FeatBytesRead == 0 || st.IO.FeatCacheHits != 0 || st.IO.FeatCacheBytes != 0 {
				t.Fatalf("cache-off epoch: %+v, want device feature reads and no cache traffic", st.IO)
			}
		}
		if !slices.Equal(ref.Digests, st.Digests) {
			t.Fatalf("budget %d: per-batch digests diverge from the cache-off epoch", b.bytes)
		}
		if st.IO.BytesRead != ref.IO.BytesRead {
			t.Fatalf("budget %d: the feature cache moved edge bytes: %d, cache-off %d", b.bytes, st.IO.BytesRead, ref.IO.BytesRead)
		}
		if prevDevice >= 0 && st.IO.FeatBytesRead > prevDevice {
			t.Fatalf("budget %d: device feature bytes grew %d -> %d", b.bytes, prevDevice, st.IO.FeatBytesRead)
		}
		prevDevice = st.IO.FeatBytesRead
	}
	if prevDevice != 0 {
		t.Fatalf("every row pinned, yet the epoch read %d feature bytes from the device", prevDevice)
	}
}

// TestEpochCacheThreadInvariance is the tentpole guarantee at epoch
// scale: per-batch digests are identical across every
// (thread count × cache budget) cell.
func TestEpochCacheThreadInvariance(t *testing.T) {
	ds := testDataset(t)
	targets := testTargets(ds, 300)
	var ref []uint64
	for _, th := range []int{1, 2, 8} {
		for _, budget := range []int64{0, 32 << 10, 1 << 30} {
			cfg := DefaultConfig()
			cfg.Seed = 7
			cfg.BatchSize = 32
			cfg.Threads = th
			cfg.CacheBudgetBytes = budget
			s, err := New(ds, cfg, uring.BackendPool)
			if err != nil {
				t.Fatal(err)
			}
			st, err := runEpoch(s, targets, nil)
			if err != nil {
				t.Fatalf("Threads=%d budget=%d: %v", th, budget, err)
			}
			if budget > 0 && st.IO.CacheHits == 0 {
				t.Fatalf("Threads=%d budget=%d: epoch saw no cache hits", th, budget)
			}
			if ref == nil {
				ref = st.Digests
				continue
			}
			if !slices.Equal(ref, st.Digests) {
				t.Fatalf("Threads=%d budget=%d: digests diverge from Threads=1 cache-off", th, budget)
			}
		}
	}
}

// TestCacheUnderFaults: cache hits bypass the ring, misses ride the
// retry path — a fault-injected, cache-enabled epoch must still equal
// the fault-free cache-off reference byte for byte.
func TestCacheUnderFaults(t *testing.T) {
	ds := testDataset(t)
	targets := testTargets(ds, 150)
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.BatchSize = 32
	cfg.Threads = 2
	s, err := New(ds, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runEpoch(s, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	noisy := cfg
	noisy.Threads = 4
	noisy.CacheBudgetBytes = 48 << 10
	noisy.WrapRing = faultWrap(uring.FaultPlan{Seed: 78, ShortReadRate: 0.1, TransientRate: 0.05, RejectRate: 0.1, DelayRate: 0.2})
	sf, err := New(ds, noisy, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	st, err := runEpoch(sf, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ref.Digests, st.Digests) {
		t.Fatal("fault-injected cached epoch digests diverge from fault-free cache-off run")
	}
	if st.IO.CacheHits == 0 || st.IO.Retries == 0 {
		t.Fatalf("scenario too weak: hits=%d retries=%d, want both > 0", st.IO.CacheHits, st.IO.Retries)
	}
}

// TestCacheInfo: the sampler reports what was pinned; a zero budget
// pins nothing, a generous one stays within its memctl accounting.
func TestCacheInfo(t *testing.T) {
	ds := testDataset(t)
	s, err := New(ds, DefaultConfig(), uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	if n, b := s.CacheInfo(); n != 0 || b != 0 {
		t.Fatalf("cache-off CacheInfo = (%d, %d), want (0, 0)", n, b)
	}
	cfg := DefaultConfig()
	cfg.CacheBudgetBytes = 64 << 10
	sc, err := New(ds, cfg, uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	n, b := sc.CacheInfo()
	if n == 0 || b == 0 {
		t.Fatal("budgeted cache pinned nothing")
	}
	if b > cfg.CacheBudgetBytes {
		t.Fatalf("cache accounted %d bytes over the %d budget", b, cfg.CacheBudgetBytes)
	}
}

// TestCachesBelowTheirIndexPinNothing: a cache budget below the rank
// index's fixed cost (here its bitmap alone, 8 B per 64 nodes) builds an
// empty neighbor cache and an empty feature cache: New succeeds, neither
// cache pins a row or charges a byte, and the epoch reads what a
// cache-off epoch reads, with the same digests.
func TestCachesBelowTheirIndexPinNothing(t *testing.T) {
	ds := openDS(t, testFeatureDatasetDir(t), false)
	targets := testTargets(ds, 256)
	run := func(budget int64) *EpochStats {
		cfg := DefaultConfig()
		cfg.Seed = 33
		cfg.BatchSize = 64
		cfg.Threads = 2
		cfg.FetchFeatures = true
		cfg.CacheBudgetBytes, cfg.FeatureCacheBudgetBytes = budget, budget
		s, err := New(ds, cfg, uring.BackendPool)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if nodes, bytes := s.CacheInfo(); nodes != 0 || bytes != 0 {
			t.Fatalf("budget %d: neighbor cache pinned %d lists of %d B", budget, nodes, bytes)
		}
		if rows, index, learn, charged := s.FeatureCacheHeld(); rows+index+learn+charged != 0 || s.FeatureCacheAdaptive() {
			t.Fatalf("budget %d: feature cache holds %d+%d+%d B, charged %d B", budget, rows, index, learn, charged)
		}
		st, err := runEpoch(s, targets, nil)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		return st
	}
	off, tiny := run(0), run((ds.NumNodes()+63)/64*8)
	if !slices.Equal(off.Digests, tiny.Digests) || off.IO.DeviceBytes() != tiny.IO.DeviceBytes() {
		t.Fatalf("empty caches changed the epoch: %d device bytes, cache-off %d", tiny.IO.DeviceBytes(), off.IO.DeviceBytes())
	}
}

// TestCacheShortestFirstExactCounts pins the neighbor cache's effect at
// one budget, a quarter of the edge file as the benchmark's workloads
// give it, on a generated R-MAT graph: which lists it pins and what an
// epoch then reads, exactly. Shortest first, the cache pins the many
// short lists that each cost a read per visit; the counts move only if
// the order, the charge, the draw or the planner changes.
func TestCacheShortestFirstExactCounts(t *testing.T) {
	dir := t.TempDir()
	if _, err := gen.Generate(dir, "rmat-cache", "rmat", 20_000, 400_000, 5); err != nil {
		t.Fatal(err)
	}
	ds := openDS(t, dir, false)
	targets := testTargets(ds, 4096)
	run := func(budget int64) (*EpochStats, int, int64) {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.BatchSize = 256
		cfg.Threads = 2
		cfg.CacheBudgetBytes = budget
		s, err := New(ds, cfg, uring.BackendSim)
		if err != nil {
			t.Fatal(err)
		}
		st, err := runEpoch(s, targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes, bytes := s.CacheInfo()
		return st, nodes, bytes
	}
	off, _, _ := run(0)
	on, nodes, bytes := run(ds.NumEdges() * storage.EntryBytes / 4)
	if !slices.Equal(off.Digests, on.Digests) {
		t.Fatal("the cache changed the sampled batches")
	}
	// Degree-first, the same budget pinned 14 hub lists of 376,568 B and
	// the epoch read 250,056 times, 1,330,000 B.
	if nodes != 8480 || bytes != 329_292 {
		t.Fatalf("pinned %d lists of %d B, want 8480 of 329292 B", nodes, bytes)
	}
	if off.IO.Reads != 255_741 || off.IO.DeviceBytes() != 1_352_800 {
		t.Fatalf("cache-off epoch read %d times, %d B; want 255741, 1352800", off.IO.Reads, off.IO.DeviceBytes())
	}
	if on.IO.Reads != 155_718 || on.IO.DeviceBytes() != 653_200 {
		t.Fatalf("cached epoch read %d times, %d B (%.2f reads, %.1f B per target); want 155718, 653200",
			on.IO.Reads, on.IO.DeviceBytes(), float64(on.IO.Reads)/float64(len(targets)), float64(on.IO.DeviceBytes())/float64(len(targets)))
	}
}
