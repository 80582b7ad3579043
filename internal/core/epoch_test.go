package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// TestEpochThreadInvariance is the headline guarantee of the epoch
// runner: identical (dataset, Config, seed, targets) produce
// byte-identical per-batch sample digests at Threads = 1, 2 and 8, on
// the pool and on real io_uring, and EpochStats totals always equal the
// sum of the per-worker IOStats. CI runs this under -race
// (scripts/check.sh, the thread-invariance step), which also exercises
// the fan-out for data races.
func TestEpochThreadInvariance(t *testing.T) {
	ds := testDataset(t)
	epochThreadInvariance(t, ds, testTargets(ds, 300), 7, []int{1, 2, 8})
}

// TestStrategyThreadInvariance: the uniform strategy passes the same
// checks under a seed and thread set TestEpochThreadInvariance does not
// use (seed 13; Threads = 1, 2 and 4). It runs in the same -race gate.
func TestStrategyThreadInvariance(t *testing.T) {
	ds := testDataset(t)
	targets := testTargets(ds, 300)
	t.Run(StrategyUniform, func(t *testing.T) {
		epochThreadInvariance(t, ds, targets, 13, []int{1, 2, 4})
	})
}

func epochThreadInvariance(t *testing.T, ds *storage.Dataset, targets []uint32, seed uint64, threads []int) {
	var ref *EpochStats
	for _, th := range threads {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.BatchSize = 32
		cfg.Threads = th
		s, err := New(ds, cfg, uring.BackendPool)
		if err != nil {
			t.Fatal(err)
		}
		st, err := runEpoch(s, targets, nil)
		if err != nil {
			t.Fatalf("Threads=%d: %v", th, err)
		}
		if st.Batches != 10 || len(st.Digests) != 10 {
			t.Fatalf("Threads=%d: got %d batches / %d digests, want 10", th, st.Batches, len(st.Digests))
		}
		if st.Sampled == 0 {
			t.Fatalf("Threads=%d: epoch sampled nothing", th)
		}
		wantWorkers := th
		if wantWorkers > st.Batches {
			wantWorkers = st.Batches
		}
		if st.Workers != wantWorkers || len(st.PerWorker) != wantWorkers {
			t.Fatalf("Threads=%d: Workers=%d PerWorker=%d, want %d", th, st.Workers, len(st.PerWorker), wantWorkers)
		}
		var sum IOStats
		for _, ws := range st.PerWorker {
			sum.Add(ws)
		}
		if sum != st.IO {
			t.Fatalf("Threads=%d: merged IO %+v != per-worker sum %+v", th, st.IO, sum)
		}
		if len(st.Latencies) != st.Batches || slices.Contains(st.Latencies, 0) {
			t.Fatalf("Threads=%d: latencies %v, want %d nonzero", th, st.Latencies, st.Batches)
		}
		if ref == nil {
			ref = st
			continue
		}
		if !slices.Equal(ref.Digests, st.Digests) {
			t.Fatalf("Threads=%d: per-batch digests diverge from Threads=%d", th, threads[0])
		}
		if ref.Sampled != st.Sampled || ref.IO.BytesRead != st.IO.BytesRead {
			t.Fatalf("Threads=%d: totals diverge: %d/%d sampled, %d/%d bytes",
				th, st.Sampled, ref.Sampled, st.IO.BytesRead, ref.IO.BytesRead)
		}
	}
	// The real io_uring backend must agree with the pool digests too.
	if !uring.Probe().Ring {
		t.Log("io_uring unavailable; real backend skipped")
		return
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.BatchSize = 32
	cfg.Threads = 4
	s, err := New(ds, cfg, uring.BackendIOURing)
	if err != nil {
		t.Fatal(err)
	}
	st, err := runEpoch(s, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ref.Digests, st.Digests) {
		t.Fatal("io_uring epoch digests diverge from pool digests")
	}
}

// TestEpochMatchesSeededBatches pins the reseeding contract: the epoch
// runner's batch bi equals a lone worker sampling the same shard after
// Reseed(Mix(Seed, bi)) — worker identity plays no role.
func TestEpochMatchesSeededBatches(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.BatchSize = 32
	cfg.Threads = 4
	targets := testTargets(ds, 200)
	s, err := New(ds, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	st, err := runEpoch(s, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Worker id 9 deliberately outside the epoch's 0..3 range.
	w, err := s.NewWorker(9)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for bi := 0; bi < st.Batches; bi++ {
		lo := bi * cfg.BatchSize
		hi := min(lo+cfg.BatchSize, len(targets))
		b, err := w.SampleBatchOpts(targets[lo:hi], BatchOpts{Seed: sample.Mix(cfg.Seed, uint64(bi))})
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Digest(); got != st.Digests[bi] {
			t.Fatalf("batch %d: lone-worker digest %#x != epoch digest %#x", bi, got, st.Digests[bi])
		}
	}
}

// TestEpochInOrderDelivery: the handler sees batch 0, 1, 2, ... in
// strict order regardless of completion order, and each delivered
// batch matches its recorded digest.
func TestEpochInOrderDelivery(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.BatchSize = 16
	cfg.Threads = 8
	targets := testTargets(ds, 250)
	s, err := New(ds, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	var indices []int
	var digests []uint64
	st, err := runEpoch(s, targets, func(i int, b *Batch) error {
		indices = append(indices, i)
		digests = append(digests, b.Digest())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(indices) != st.Batches {
		t.Fatalf("handler saw %d batches, want %d", len(indices), st.Batches)
	}
	for i, got := range indices {
		if got != i {
			t.Fatalf("delivery out of order: position %d got batch %d", i, got)
		}
	}
	if !slices.Equal(digests, st.Digests) {
		t.Fatal("delivered batches do not match recorded digests")
	}
}

// TestEpochUnderFaults: injected ring faults (absorbed by the retry
// path) must not change a single epoch byte at any thread count.
func TestEpochUnderFaults(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.BatchSize = 32
	cfg.Threads = 2
	targets := testTargets(ds, 150)
	s, err := New(ds, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runEpoch(s, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty := cfg
	faulty.Threads = 4
	faulty.WrapRing = faultWrap(uring.FaultPlan{Seed: 77, ShortReadRate: 0.1, TransientRate: 0.05, RejectRate: 0.1, DelayRate: 0.2})
	sf, err := New(ds, faulty, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	st, err := runEpoch(sf, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ref.Digests, st.Digests) {
		t.Fatal("fault-injected epoch digests diverge from fault-free run")
	}
	if st.IO.Retries == 0 {
		t.Fatal("fault plan injected nothing — plan too weak to prove anything")
	}
}

// TestEpochHandlerError: a failing handler aborts the epoch and
// surfaces its error.
func TestEpochHandlerError(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.BatchSize = 16
	cfg.Threads = 4
	s, err := New(ds, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	_, err = runEpoch(s, testTargets(ds, 100), func(i int, b *Batch) error {
		if i == 2 {
			return boom
		}
		return nil
	})
	if err == nil || !contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want wrapped handler error", err)
	}
}

// TestEpochEmptyTargets: a targetless epoch is rejected, not a no-op.
func TestEpochEmptyTargets(t *testing.T) {
	ds := testDataset(t)
	s, err := New(ds, DefaultConfig(), uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runEpoch(s, nil, nil); err == nil {
		t.Fatal("empty epoch accepted")
	}
}

// TestEpochMaxBatchSize: a BatchSize of MaxInt makes one batch of every
// target, the batch a BatchSize of len(targets) makes. The batch count
// was (len+size-1)/size, which wrapped to 0 batches there.
func TestEpochMaxBatchSize(t *testing.T) {
	ds := testDataset(t)
	targets := testTargets(ds, 100)
	run := func(size int) *EpochStats {
		cfg := DefaultConfig()
		cfg.BatchSize = size
		cfg.Threads = 1
		s, err := New(ds, cfg, uring.BackendPool)
		if err != nil {
			t.Fatal(err)
		}
		st, err := runEpoch(s, targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	got, want := run(math.MaxInt), run(len(targets))
	if got.Batches != 1 || got.Targets != len(targets) || !slices.Equal(got.Digests, want.Digests) {
		t.Fatalf("BatchSize MaxInt: %d batches of %d targets, digests %#x; want 1 batch, digests %#x",
			got.Batches, got.Targets, got.Digests, want.Digests)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// runEpoch runs one epoch at the sampler's Config.Seed, as the root
// package's RunEpoch does.
func runEpoch(s *Sampler, targets []uint32, onBatch func(int, *Batch) error) (*EpochStats, error) {
	return s.RunEpochSeeded(context.Background(), s.cfg.Seed, targets, onBatch)
}

// TestQuantile: the quantile of durations given in any order, with q
// clamped to (0,1] — at or below 0 the smallest, above 1 the largest —
// monotone in q, without reordering its input; an empty slice has no
// quantile.
func TestQuantile(t *testing.T) {
	five := []time.Duration{100 * time.Microsecond, 500 * time.Nanosecond, 10 * time.Second, 3 * time.Microsecond, time.Microsecond}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{-1, 500 * time.Nanosecond},
		{0, 500 * time.Nanosecond},
		{0.2, 500 * time.Nanosecond},
		{0.5, 3 * time.Microsecond},
		{0.9, 10 * time.Second},
		{2, 10 * time.Second},
	} {
		if got := Quantile(five, c.q); got != c.want {
			t.Fatalf("Quantile(%v, %v) = %v, want %v", five, c.q, got, c.want)
		}
	}
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := Quantile(five, q)
		if v < prev {
			t.Fatalf("quantiles not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
	if five[0] != 100*time.Microsecond {
		t.Fatal("Quantile reordered its input")
	}
	if got := Quantile(nil, 0.99); got != 0 {
		t.Fatalf("Quantile(nil, 0.99) = %v, want 0", got)
	}
}

// TestQuantileNearestRank pins the nearest-rank definition: the
// quantile is the ⌈q·n⌉-th smallest value, so the median of 3 values is
// the 2nd and the median of 2 the lower one (a truncating rank returns
// the 1st, a median below two thirds of the samples).
func TestQuantileNearestRank(t *testing.T) {
	three := []time.Duration{900 * time.Microsecond, time.Microsecond, 40 * time.Microsecond}
	two := []time.Duration{900 * time.Microsecond, time.Microsecond}
	for _, c := range []struct {
		ds   []time.Duration
		q    float64
		want time.Duration
	}{
		{three, 0.5, 40 * time.Microsecond},
		{three, 1, 900 * time.Microsecond},
		{three, 1.0 / 3.0, time.Microsecond},
		{two, 0.5, time.Microsecond},
	} {
		if got := Quantile(c.ds, c.q); got != c.want {
			t.Fatalf("Quantile(%v, %v) = %v, want %v", c.ds, c.q, got, c.want)
		}
	}
}

// TestEpochCancellation: canceling the context mid-epoch stops the
// feeder promptly — RunEpochSeeded returns context.Canceled with partial
// stats whose Completed counts only the batches that actually ran, each
// with a latency and the rest without, and every batch that did run
// landed in order with its recorded digest.
func TestEpochCancellation(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.BatchSize = 16
	cfg.Threads = 2
	targets := testTargets(ds, 400) // 25 batches
	s, err := New(ds, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	st, err := s.RunEpochSeeded(ctx, cfg.Seed, targets, func(i int, b *Batch) error {
		if i != delivered {
			t.Fatalf("delivery out of order: position %d got batch %d", delivered, i)
		}
		delivered++
		if i == 0 {
			cancel() // cancel from inside the first delivery
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st == nil {
		t.Fatal("canceled epoch returned nil stats")
	}
	if st.Completed < 1 || st.Completed >= st.Batches {
		t.Fatalf("Completed = %d, want in [1, %d)", st.Completed, st.Batches)
	}
	ran := 0
	for bi, lat := range st.Latencies {
		if (lat != 0) != (st.Digests[bi] != 0) || bi < delivered && lat == 0 {
			t.Fatalf("batch %d (of %d delivered): latency %v, digest %#x", bi, delivered, lat, st.Digests[bi])
		}
		if lat != 0 {
			ran++
		}
	}
	if ran != st.Completed {
		t.Fatalf("%d batches have a latency, Completed = %d", ran, st.Completed)
	}
	// The batches that DID complete must be the deterministic ones: the
	// recorded digest of every completed in-order batch matches a
	// direct seeded run.
	w, err := s.NewWorker(9)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for bi := 0; bi < delivered; bi++ {
		lo := bi * cfg.BatchSize
		hi := min(lo+cfg.BatchSize, len(targets))
		b, err := w.SampleBatchOpts(targets[lo:hi], BatchOpts{Seed: sample.Mix(cfg.Seed, uint64(bi))})
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Digest(); got != st.Digests[bi] {
			t.Fatalf("batch %d: digest %#x != epoch digest %#x", bi, got, st.Digests[bi])
		}
	}
}

// TestEpochCancelNearEnd: canceled means some batch did not complete.
// In a 25-batch epoch on two workers, a cancel inside batch 23's handler
// lands after batches 0–23 completed; batch 24 may or may not have
// started by then. So the epoch either completed all 25, returns nil
// and folds an adaptive feature cache's counts — the next epoch reads
// what it reads after an epoch nobody canceled — or it completed 24,
// returns context.Canceled and discards them, so the next epoch reads
// what a sampler's first epoch reads. A cancel inside batch 24's handler
// lands after every batch completed, so that epoch always completes.
// Repeated, because a collector that lets a pending cancellation race
// the last results loses only sometimes.
func TestEpochCancelNearEnd(t *testing.T) {
	ds := openDS(t, learnDatasetDir(t), false)
	cfg := learnConfig(ds, 2)
	cfg.BatchSize = 16
	targets := trainSplit(ds, 200, 25*cfg.BatchSize)
	next := func(s *Sampler) IOStats {
		st, err := s.RunEpochSeeded(context.Background(), epochSeed(1), targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st.IO
	}
	ref := newLearningSampler(t, ds, cfg, uring.BackendPool)
	if _, err := ref.RunEpochSeeded(context.Background(), epochSeed(0), targets, nil); err != nil {
		t.Fatal(err)
	}
	folded := next(ref)
	first := next(newLearningSampler(t, ds, cfg, uring.BackendPool))
	if folded.FeatCacheAdmitted == 0 || first.FeatCacheAdmitted != 0 {
		t.Fatalf("reference epochs admitted %d rows after a completed epoch, %d after none; want some, then none",
			folded.FeatCacheAdmitted, first.FeatCacheAdmitted)
	}
	for rep := range 50 {
		cancelAt := 23 + rep%2
		s := newLearningSampler(t, ds, cfg, uring.BackendPool)
		ctx, cancel := context.WithCancel(context.Background())
		st, err := s.RunEpochSeeded(ctx, epochSeed(0), targets, func(i int, _ *Batch) error {
			if i == cancelAt {
				cancel()
			}
			return nil
		})
		cancel()
		want := folded
		switch {
		case st == nil || st.Batches != 25:
			t.Fatalf("rep %d (cancel at %d): stats %+v, err %v", rep, cancelAt, st, err)
		case err == nil && st.Completed == st.Batches:
		case errors.Is(err, context.Canceled) && cancelAt == 23 && st.Completed == 24:
			want = first
		default:
			t.Fatalf("rep %d (cancel at %d): err %v after %d of %d batches", rep, cancelAt, err, st.Completed, st.Batches)
		}
		got := next(s)
		if got.FeatBytesRead != want.FeatBytesRead || got.FeatCacheHits != want.FeatCacheHits || got.FeatCacheAdmitted != want.FeatCacheAdmitted {
			t.Fatalf("rep %d (cancel at %d, err %v): next epoch read %d B, hit %d, admitted %d; want %d B, %d, %d", rep, cancelAt, err,
				got.FeatBytesRead, got.FeatCacheHits, got.FeatCacheAdmitted,
				want.FeatBytesRead, want.FeatCacheHits, want.FeatCacheAdmitted)
		}
	}
}

// TestEpochCtxPreCanceled: an already-dead context runs nothing.
func TestEpochCtxPreCanceled(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.BatchSize = 16
	cfg.Threads = 2
	s, err := New(ds, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := s.RunEpochSeeded(ctx, cfg.Seed, testTargets(ds, 100), func(i int, b *Batch) error {
		t.Fatal("handler ran under a pre-canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Completed != 0 {
		t.Fatalf("Completed = %d, want 0", st.Completed)
	}
}
