package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// buildGraph generates the test graph once per test and returns its dir.
func buildGraph(t *testing.T, featureDim int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "g")
	if _, err := gen.GenerateWith(dir, "shardtest", "rmat", 2000, 30_000, 11, gen.Options{FeatureDim: featureDim}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Fanouts = []int{6, 4}
	cfg.BatchSize = 128
	cfg.Threads = 1
	// Non-zero budgets so the shard-restricted caches and alias tables
	// are exercised, not just the raw ring path.
	cfg.CacheBudgetBytes = 64 << 10
	cfg.FeatureCacheBudgetBytes = 64 << 10
	return cfg
}

// openLocals partitions dir into n shards and returns Local engines
// over them (and the shard datasets, closed via t.Cleanup). wrap, when
// set, is every shard's Config.WrapRing, told which shard it serves.
func openLocals(t *testing.T, dir string, n int, cfg core.Config, wrap func(shard int, r uring.Ring, workerID int) (uring.Ring, error)) []Engine {
	t.Helper()
	dirs, err := gen.Partition(dir, filepath.Join(t.TempDir(), "parts"), n)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]Engine, n)
	for i, sdir := range dirs {
		sds, err := storage.Open(sdir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sds.Close() })
		scfg := cfg
		if !sds.HasFeatures() {
			scfg.FeatureCacheBudgetBytes = 0
		}
		if wrap != nil {
			scfg.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) { return wrap(i, r, workerID) }
		}
		eng, err := NewLocal(sds, scfg, uring.BackendPool)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		engines[i] = eng
	}
	return engines
}

// TestRouterMatchesSingleNode is the package-level determinism proof:
// for every features × shard count, the router-assembled
// chunks are Digest-identical (and structurally identical) to a single
// worker's batches over the unsharded dataset.
func TestRouterMatchesSingleNode(t *testing.T) {
	dir := buildGraph(t, 4)
	cfg := testConfig()

	full, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	s, err := core.New(full, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// A deterministic target mix: hubs, tails, duplicates, zero-degree.
	rng := sample.NewRNG(99)
	targets := make([]uint32, 300)
	for i := range targets {
		targets[i] = rng.Uint32n(uint32(full.NumNodes()))
	}
	targets[7] = targets[8] // duplicate
	const seed = 12345

	for _, shards := range []int{1, 2, 4} {
		engines := openLocals(t, dir, shards, cfg, nil)
		rt, err := NewRouter(engines)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		for _, features := range []bool{false, true} {
			name := fmt.Sprintf("%dshards/feat=%v", shards, features)
			for ci := 0; ci*cfg.BatchSize < len(targets); ci++ {
				lo := ci * cfg.BatchSize
				hi := min(lo+cfg.BatchSize, len(targets))
				chunkSeed := sample.Mix(seed, uint64(ci))
				want, err := w.SampleBatchOpts(targets[lo:hi], core.BatchOpts{
					Fanouts: cfg.Fanouts, Seed: chunkSeed, Features: features,
				})
				if err != nil {
					t.Fatalf("%s chunk %d reference: %v", name, ci, err)
				}
				// "" and "uniform" name the same, one strategy.
				for _, strategy := range []string{"", core.StrategyUniform} {
					got, err := rt.SampleChunk(context.Background(), targets[lo:hi], cfg.Fanouts, chunkSeed, strategy, features)
					if err != nil {
						t.Fatalf("%s chunk %d router (strategy %q): %v", name, ci, strategy, err)
					}
					if g, w := got.Digest(), want.Digest(); g != w {
						t.Fatalf("%s chunk %d (strategy %q) digest %016x != single-node %016x", name, ci, strategy, g, w)
					}
				}
			}
		}
		for _, strategy := range []string{"weighted", "walk"} {
			if _, err := rt.SampleChunk(context.Background(), targets[:8], cfg.Fanouts, seed, strategy, false); err == nil ||
				!strings.Contains(err.Error(), strategy) {
				t.Fatalf("%d shards: strategy %q: err = %v, want a refusal naming it", shards, strategy, err)
			}
		}
	}
}

// TestRouterShardFaultStillIdentical injects a fault-wrapped ring on
// ONE shard (short reads, transient errnos, reordered completions) and
// asserts the router's output digests stay identical to the clean
// single-node run — the retry machinery absorbs the faults below the
// determinism contract.
func TestRouterShardFaultStillIdentical(t *testing.T) {
	dir := buildGraph(t, 4)
	cfg := testConfig()

	full, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	s, err := core.New(full, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	engines := openLocals(t, dir, 2, cfg, func(shard int, r uring.Ring, _ int) (uring.Ring, error) {
		if shard == 0 {
			return r, nil
		}
		return uring.NewFault(r, uring.FaultPlan{
			Seed: 5, ShortReadRate: 0.2, TransientRate: 0.1, DelayRate: 0.2, MaxDelay: 4,
		})
	})
	rt, err := NewRouter(engines)
	if err != nil {
		t.Fatal(err)
	}

	rng := sample.NewRNG(42)
	targets := make([]uint32, 128)
	for i := range targets {
		targets[i] = rng.Uint32n(uint32(full.NumNodes()))
	}
	want, err := w.SampleBatchOpts(targets, core.BatchOpts{Fanouts: cfg.Fanouts, Seed: 777, Features: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.SampleChunk(context.Background(), targets, cfg.Fanouts, 777, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if g, wd := got.Digest(), want.Digest(); g != wd {
		t.Fatalf("faulty-shard digest %016x != clean single-node %016x", g, wd)
	}
}

// TestNewRouterRejectsBadPartitions: gaps, duplicates, and
// wrong-declared positions are configuration errors caught up front.
func TestNewRouterRejectsBadPartitions(t *testing.T) {
	dir := buildGraph(t, 0)
	cfg := testConfig()
	cfg.FeatureCacheBudgetBytes = 0

	dirs, err := gen.Partition(dir, filepath.Join(t.TempDir(), "parts"), 2)
	if err != nil {
		t.Fatal(err)
	}
	open := func(sdir string) Engine {
		sds, err := storage.Open(sdir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sds.Close() })
		eng, err := NewLocal(sds, cfg, uring.BackendPool)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	e0, e1 := open(dirs[0]), open(dirs[1])
	if _, err := NewRouter([]Engine{e0}); err == nil {
		t.Fatal("router accepted a partition with a missing shard")
	}
	if _, err := NewRouter([]Engine{e0, e0}); err == nil {
		t.Fatal("router accepted a duplicated shard")
	}
	if rt, err := NewRouter([]Engine{e1, e0}); err != nil {
		// Order-independence: engines may be listed in any order.
		t.Fatalf("router rejected out-of-order engine list: %v", err)
	} else if rt.Shards() != 2 {
		t.Fatalf("router has %d shards, want 2", rt.Shards())
	}

	if _, err := NewRouter(nil); err == nil {
		t.Fatal("router accepted zero engines")
	}
}

// TestLocalIsBounded: 64 concurrent router calls over two in-process
// shards at Threads = 2 must not grow a worker per call — each shard
// builds at most Threads edge rings plus one per retired worker, and
// every call still succeeds.
func TestLocalIsBounded(t *testing.T) {
	dir := buildGraph(t, 0)
	cfg := testConfig()
	cfg.Threads = 2
	var mu sync.Mutex
	rings := make(map[int]int)
	engines := openLocals(t, dir, 2, cfg, func(shard int, r uring.Ring, _ int) (uring.Ring, error) {
		mu.Lock()
		rings[shard]++
		mu.Unlock()
		return r, nil
	})
	rt, err := NewRouter(engines)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 64)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := sample.NewRNG(uint64(i) + 1)
			targets := make([]uint32, 64)
			for j := range targets {
				targets[j] = rng.Uint32n(uint32(rt.NumNodes()))
			}
			_, errs[i] = rt.SampleChunk(context.Background(), targets, cfg.Fanouts, uint64(i), core.StrategyUniform, false)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	for i, e := range engines {
		limit := int64(cfg.Threads) + e.(*Local).pool.Retired()
		if got := int64(rings[i]); got > limit {
			t.Fatalf("shard %d built %d edge rings under 64 concurrent calls, want at most %d", i, got, limit)
		}
	}
}

// TestLocalStatsCountCPU: in-process shard workers run on core.Pool
// slots, so the router's merged stats carry their jobs' CPU time.
func TestLocalStatsCountCPU(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("per-thread CPU time is read on Linux only")
	}
	dir := buildGraph(t, 4)
	cfg := testConfig()
	rt, err := NewRouter(openLocals(t, dir, 2, cfg, nil))
	if err != nil {
		t.Fatal(err)
	}
	rng := sample.NewRNG(5)
	for call := range 4 {
		targets := make([]uint32, cfg.BatchSize)
		for j := range targets {
			targets[j] = rng.Uint32n(uint32(rt.NumNodes()))
		}
		if _, err := rt.SampleChunk(context.Background(), targets, cfg.Fanouts, uint64(call), core.StrategyUniform, true); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.Reads == 0 {
		t.Fatal("router calls recorded no reads")
	}
	if st.UserCPUNanos+st.SysCPUNanos == 0 {
		t.Fatalf("shard-mode stats report no worker CPU time: %+v", st)
	}
}
