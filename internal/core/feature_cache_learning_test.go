package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"ringsampler/internal/cache"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// The feature cache learns from completed epochs and re-admits at epoch
// boundaries (DESIGN.md §10). These tests pin the contract around that:
// payloads never change, what is pinned and what an epoch reads depend
// on the sampler's history of completed epochs and on nothing else, and
// a cache too small for its counters is the static degree-first cache.

// learnRows is a feature-cache size, in rows, that affords the learner
// on learnDatasetDir's 2000-node graph of 128-byte rows while leaving
// most nodes outside: counters, bitmaps and rank directory hold 4,528 B,
// so a budget learns from cache.LearnBudget = 36,224 B, which at 128 B
// per learning row is (36,224 − 4,528) / 128 ≥ 248 rows.
const learnRows = 700

// learnDatasetDir generates testFeatureDatasetDir's graph with 128-byte
// feature rows, rmat-1m's width. At the conformance dataset's 24-byte
// rows the least budget that learns pins 1,321 rows: every node with a
// neighbor, which leaves no training target outside the cache.
func learnDatasetDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := gen.GenerateWith(dir, "tiny", "rmat", 2_000, 30_000, 11, gen.Options{FeatureDim: 32}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func learnConfig(ds *storage.Dataset, threads int) Config {
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.BatchSize = 64
	cfg.Threads = threads
	cfg.Fanouts = []int{5, 5}
	cfg.FetchFeatures = true
	cfg.FeatureCacheBudgetBytes = cache.FeatureBudget(ds.NumNodes(), ds.FeatureStride(), learnRows, true)
	return cfg
}

// trainSplit is a fixed set of low-degree targets — the nodes a
// degree-first cache never admits and every training epoch revisits —
// repeated to n entries.
func trainSplit(ds *storage.Dataset, distinct, n int) []uint32 {
	ids := make([]uint32, 0, ds.NumNodes())
	for v := int64(0); v < ds.NumNodes(); v++ {
		if ds.Degree(uint32(v)) > 0 {
			ids = append(ids, uint32(v))
		}
	}
	sort.SliceStable(ids, func(i, j int) bool { return ds.Degree(ids[i]) < ds.Degree(ids[j]) })
	out := make([]uint32, n)
	for i := range out {
		out[i] = ids[i%distinct]
	}
	return out
}

func epochSeed(e int) uint64 { return sample.Mix(0x5eed, uint64(e)) }

func pinnedFeatureRows(s *Sampler) []uint32 {
	var out []uint32
	for v := int64(0); v < s.ds.NumNodes(); v++ {
		if s.featHot.Lookup(uint32(v)) != nil {
			out = append(out, uint32(v))
		}
	}
	return out
}

func newLearningSampler(t *testing.T, ds *storage.Dataset, cfg Config, be uring.Backend) *Sampler {
	t.Helper()
	s, err := New(ds, cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := s.FeatureCacheInfo(); n != learnRows || !s.FeatureCacheAdaptive() {
		t.Fatalf("feature cache pinned %d rows (adaptive %v), want %d adaptive rows", n, s.FeatureCacheAdaptive(), learnRows)
	}
	return s
}

// TestFeatureCacheThreadInvariance: two fresh samplers driven through
// the same three epochs at 1 and at 4 threads end with the same pinned
// set and read the same feature bytes in every epoch.
func TestFeatureCacheThreadInvariance(t *testing.T) {
	ds := openDS(t, learnDatasetDir(t), false)
	targets := trainSplit(ds, 200, 640)
	type epochCounts struct{ bytes, reads, hits, admitted, evicted int64 }
	run := func(threads int) ([]epochCounts, []uint32) {
		s := newLearningSampler(t, ds, learnConfig(ds, threads), uring.BackendPool)
		var out []epochCounts
		for e := 0; e < 3; e++ {
			st, err := s.RunEpochSeeded(context.Background(), epochSeed(e), targets, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, epochCounts{st.IO.FeatBytesRead, st.IO.FeatReads, st.IO.FeatCacheHits, st.IO.FeatCacheAdmitted, st.IO.FeatCacheEvicted})
		}
		return out, pinnedFeatureRows(s)
	}
	ref, refPinned := run(1)
	if ref[1].admitted == 0 || ref[2].admitted == 0 {
		t.Fatalf("no re-admission happened (%+v): the test exercises nothing", ref)
	}
	got, gotPinned := run(4)
	for e := range ref {
		if got[e] != ref[e] {
			t.Fatalf("epoch %d: 4 threads counted %+v, 1 thread %+v", e, got[e], ref[e])
		}
	}
	if !slices.Equal(gotPinned, refPinned) {
		t.Fatalf("pinned sets differ: %d rows at 4 threads, %d at 1", len(gotPinned), len(refPinned))
	}
}

// TestFeatureCacheBypassAcrossReadmissions: over three epochs on one
// sampler — two of them behind a re-admission — every batch's FeatNodes,
// Features and digest are byte-identical to a cache-off sampler's. A
// stale or misplaced row after an eviction fails here.
func TestFeatureCacheBypassAcrossReadmissions(t *testing.T) {
	ds := openDS(t, learnDatasetDir(t), false)
	targets := trainSplit(ds, 200, 640)
	capture := func(s *Sampler, e int) ([]featBatch, *EpochStats) {
		var out []featBatch
		st, err := s.RunEpochSeeded(context.Background(), epochSeed(e), targets, func(_ int, b *Batch) error {
			out = append(out, featBatch{
				digest: b.Digest(),
				nodes:  append([]uint32(nil), b.FeatNodes...),
				dim:    b.FeatureDim,
				feats:  append([]byte(nil), b.Features...),
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, st
	}
	for _, be := range []uring.Backend{uring.BackendSim, uring.BackendPool} {
		cfg := learnConfig(ds, 2)
		off := cfg
		off.FeatureCacheBudgetBytes = 0
		plain, err := New(ds, off, be)
		if err != nil {
			t.Fatal(err)
		}
		s := newLearningSampler(t, ds, cfg, be)
		var swapped int64
		for e := 0; e < 3; e++ {
			ref, _ := capture(plain, e)
			got, st := capture(s, e)
			assertFeatPayloadsEqual(t, ref, got, string(be))
			swapped += st.IO.FeatCacheAdmitted
		}
		if swapped == 0 {
			t.Fatalf("%s: no row was ever re-admitted", be)
		}
	}
}

// TestFeatureCacheFoldsOnlyCompletedEpochs: a canceled epoch and an
// epoch whose handler fails teach the cache nothing. A sampler that went
// through both, then through two complete epochs, re-admits, reads and
// ends up pinning exactly what a sampler that only ran the two complete
// epochs does.
func TestFeatureCacheFoldsOnlyCompletedEpochs(t *testing.T) {
	ds := openDS(t, learnDatasetDir(t), false)
	targets := trainSplit(ds, 200, 640)
	cfg := learnConfig(ds, 2)
	type counts struct{ bytes, hits, admitted int64 }
	complete := func(s *Sampler, e int) counts {
		st, err := s.RunEpochSeeded(context.Background(), epochSeed(e), targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		return counts{st.IO.FeatBytesRead, st.IO.FeatCacheHits, st.IO.FeatCacheAdmitted}
	}
	ref := newLearningSampler(t, ds, cfg, uring.BackendPool)
	want := []counts{complete(ref, 1), complete(ref, 2)}
	if want[0].admitted != 0 || want[1].admitted == 0 {
		t.Fatalf("reference epochs admitted %d then %d rows; want none, then some", want[0].admitted, want[1].admitted)
	}

	s := newLearningSampler(t, ds, cfg, uring.BackendPool)
	// The canceled epoch runs on one worker. With two, one can stall on
	// batch 0 while the other finishes every later batch, so all of them
	// complete before the handler's cancel and the epoch is not canceled.
	// With one, the job channel is unbuffered and the result channel holds
	// a single result: at most batches 0–2 of 10 have started when cancel
	// runs.
	s.cfg.Threads = 1
	ctx, cancel := context.WithCancel(context.Background())
	if st, err := s.RunEpochSeeded(ctx, epochSeed(0), targets, func(i int, _ *Batch) error {
		if i == 0 {
			cancel()
		}
		return nil
	}); !errors.Is(err, context.Canceled) || st.Completed == 0 {
		t.Fatalf("canceled epoch: err %v, stats %+v", err, st)
	}
	s.cfg.Threads = cfg.Threads
	boom := errors.New("handler failed")
	if _, err := s.RunEpochSeeded(context.Background(), epochSeed(0), targets, func(i int, _ *Batch) error {
		if i == 2 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("failed epoch: err %v", err)
	}
	for i, e := range []int{1, 2} {
		if got := complete(s, e); got != want[i] {
			t.Fatalf("complete epoch %d after a canceled and a failed one counted %+v; without them %+v", i, got, want[i])
		}
	}
	if !slices.Equal(pinnedFeatureRows(s), pinnedFeatureRows(ref)) {
		t.Fatal("pinned sets diverge")
	}
}

// TestFeatureCacheReadmitConcurrentWithSamplers: epochs re-admit rows on
// a sampler while other goroutines sample feature batches on workers of
// the same sampler. Under -race this covers the read/write locking; every
// concurrent batch must still carry exactly the reference payload.
func TestFeatureCacheReadmitConcurrentWithSamplers(t *testing.T) {
	ds := openDS(t, learnDatasetDir(t), false)
	cfg := learnConfig(ds, 2)
	targets := trainSplit(ds, 200, 640)
	probe := targets[:96]

	off := cfg
	off.FeatureCacheBudgetBytes = 0
	plain, err := New(ds, off, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	refW, err := plain.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer refW.Close()
	want, err := refW.SampleBatchOpts(probe, BatchOpts{Fanouts: cfg.Fanouts, Seed: 77, Features: true})
	if err != nil {
		t.Fatal(err)
	}

	s := newLearningSampler(t, ds, cfg, uring.BackendPool)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		w, err := s.NewWorker(10 + g)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.Close()
			for n := 0; ; n++ {
				select {
				case <-stop:
					if n == 0 {
						t.Error("a concurrent sampler never ran")
					}
					return
				default:
				}
				b, err := w.SampleBatchOpts(probe, BatchOpts{Fanouts: cfg.Fanouts, Seed: 77, Features: true})
				if err != nil {
					t.Error(err)
					return
				}
				if b.Digest() != want.Digest() || !bytes.Equal(b.Features, want.Features) {
					t.Error("a batch sampled during re-admissions differs from the cache-off reference")
					return
				}
			}
		}()
	}
	var swapped int64
	for e := 0; e < 6; e++ {
		st, err := s.RunEpochSeeded(context.Background(), epochSeed(e), targets, nil)
		if err != nil {
			t.Error(err)
			break
		}
		swapped += st.IO.FeatCacheAdmitted
	}
	close(stop)
	wg.Wait()
	if swapped == 0 {
		t.Fatal("no row was re-admitted while the samplers ran")
	}
}

// TestFeatureCacheStaticAtSmallBudget: on the checked-in dataset (5,550
// nodes of 64 B) a 400-row budget, 32,000 B, is below cache.LearnBudget
// (8 × 12,536 B of counters, bitmaps and rank directory = 100,288 B), so
// the cache is the static degree-first cache: the reference prefix is
// pinned, nothing is ever re-admitted, and every epoch of one seed reads
// exactly the bytes recorded on the commit before the cache could learn.
func TestFeatureCacheStaticAtSmallBudget(t *testing.T) {
	ds, err := storage.Open("../../benchdata/bench/ogbn-papers-div20000")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	const rows = 400
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.BatchSize = 128
	cfg.Threads = 2
	cfg.FetchFeatures = true
	cfg.FeatureCacheBudgetBytes = cache.FeatureBudget(ds.NumNodes(), ds.FeatureStride(), rows, false)
	s, err := New(ds, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := s.FeatureCacheInfo(); n != rows || s.FeatureCacheAdaptive() {
		t.Fatalf("pinned %d rows, adaptive %v; want %d static rows", n, s.FeatureCacheAdaptive(), rows)
	}
	order := make([]uint32, ds.NumNodes())
	for v := range order {
		order[v] = uint32(v)
	}
	sort.SliceStable(order, func(i, j int) bool { return ds.Degree(order[i]) > ds.Degree(order[j]) })
	want := append([]uint32(nil), order[:rows]...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !slices.Equal(pinnedFeatureRows(s), want) {
		t.Fatal("pinned set is not the degree-first prefix")
	}
	targets := testTargets(ds, 1024)
	for e := 0; e < 3; e++ {
		st, err := s.RunEpochSeeded(context.Background(), 42, targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		io := st.IO
		if io.FeatCacheAdmitted != 0 || io.FeatCacheEvicted != 0 || st.ReadmitSeconds != 0 {
			t.Fatalf("epoch %d: a static cache re-admitted (%d in, %d out, %.6fs)", e, io.FeatCacheAdmitted, io.FeatCacheEvicted, st.ReadmitSeconds)
		}
		// Recorded at 33318a0 (map-indexed degree-first cache) with this
		// exact configuration.
		if io.FeatReads != parentStaticFeatReads || io.FeatBytesRead != parentStaticFeatBytes ||
			io.FeatCacheHits != parentStaticFeatHits || io.FeatCacheMisses != parentStaticFeatMisses {
			t.Fatalf("epoch %d: feature counters reads=%d bytes=%d hits=%d misses=%d differ from the recorded static cache's %d/%d/%d/%d",
				e, io.FeatReads, io.FeatBytesRead, io.FeatCacheHits, io.FeatCacheMisses,
				parentStaticFeatReads, parentStaticFeatBytes, parentStaticFeatHits, parentStaticFeatMisses)
		}
	}
}

const (
	parentStaticFeatReads  = 5333
	parentStaticFeatBytes  = 450176
	parentStaticFeatHits   = 3107
	parentStaticFeatMisses = 7034
)

// TestFeatureCacheLearnsTrainSplit: with a fixed train split of
// low-degree nodes on a skewed graph, the second epoch — re-admission
// fill included — moves strictly fewer feature bytes than the first, and
// the fill is part of the count.
func TestFeatureCacheLearnsTrainSplit(t *testing.T) {
	ds := openDS(t, learnDatasetDir(t), false)
	targets := trainSplit(ds, 200, 1280)
	s := newLearningSampler(t, ds, learnConfig(ds, 2), uring.BackendPool)
	first, err := s.RunEpochSeeded(context.Background(), epochSeed(0), targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunEpochSeeded(context.Background(), epochSeed(1), targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.IO.FeatCacheAdmitted != 0 {
		t.Fatalf("the first epoch of a sampler re-admitted %d rows", first.IO.FeatCacheAdmitted)
	}
	fill := second.IO.FeatCacheAdmitted * ds.FeatureStride()
	if fill == 0 || second.IO.FeatCacheEvicted != second.IO.FeatCacheAdmitted {
		t.Fatalf("second epoch admitted %d / evicted %d rows", second.IO.FeatCacheAdmitted, second.IO.FeatCacheEvicted)
	}
	var workers IOStats
	for _, w := range second.PerWorker {
		workers.Add(w)
	}
	if second.IO.FeatBytesRead != workers.FeatBytesRead+fill {
		t.Fatalf("second epoch counts %d feature bytes; its workers read %d and the fill %d", second.IO.FeatBytesRead, workers.FeatBytesRead, fill)
	}
	if second.IO.FeatBytesRead >= first.IO.FeatBytesRead {
		t.Fatalf("second epoch moved %d feature bytes (fill %d), first %d: nothing was learned", second.IO.FeatBytesRead, fill, first.IO.FeatBytesRead)
	}
	hit := func(io IOStats) float64 {
		return float64(io.FeatCacheHits) / float64(io.FeatCacheHits+io.FeatCacheMisses)
	}
	if hit(second.IO) <= hit(first.IO) {
		t.Fatalf("hit ratio %.4f → %.4f did not rise", hit(first.IO), hit(second.IO))
	}
}

// TestEpochBytesPerSecCountsDevice: BytesPerSec is device-byte
// throughput — feature bytes and O_DIRECT alignment slack included, not
// edge bytes alone.
func TestEpochBytesPerSecCountsDevice(t *testing.T) {
	dir := testFeatureDatasetDir(t)
	check := func(t *testing.T, st *EpochStats) {
		t.Helper()
		if st.IO.DeviceBytes() != st.IO.BytesRead+st.IO.AlignSlackBytes+st.IO.FeatBytesRead {
			t.Fatalf("DeviceBytes %d is not edge + slack + feature bytes of %+v", st.IO.DeviceBytes(), st.IO)
		}
		if want := float64(st.IO.DeviceBytes()) / st.Seconds; math.Abs(st.BytesPerSec-want) > 1e-6*want {
			t.Fatalf("BytesPerSec %.1f, want %d device bytes / %.6fs = %.1f", st.BytesPerSec, st.IO.DeviceBytes(), st.Seconds, want)
		}
	}
	t.Run("features", func(t *testing.T) {
		ds := openDS(t, dir, false)
		cfg := DefaultConfig()
		cfg.BatchSize, cfg.Threads, cfg.FetchFeatures = 64, 2, true
		s, err := New(ds, cfg, uring.BackendPool)
		if err != nil {
			t.Fatal(err)
		}
		st, err := runEpoch(s, testTargets(ds, 256), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.IO.FeatBytesRead == 0 {
			t.Fatal("feature epoch read no feature bytes")
		}
		check(t, st)
	})
	t.Run("odirect", func(t *testing.T) {
		ds := openDS(t, dir, true)
		if ds.DirectAlign() == 0 {
			t.Skipf("O_DIRECT unavailable here: %v", ds.DirectFallback())
		}
		cfg := DefaultConfig()
		cfg.BatchSize, cfg.Threads = 64, 2
		s, err := New(ds, cfg, uring.BackendPool)
		if err != nil {
			t.Fatal(err)
		}
		st, err := runEpoch(s, testTargets(ds, 256), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.IO.AlignSlackBytes == 0 {
			t.Fatal("O_DIRECT epoch recorded no alignment slack")
		}
		check(t, st)
	})
}
