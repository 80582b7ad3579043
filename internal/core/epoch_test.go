package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"ringsampler/internal/sample"
	"ringsampler/internal/uring"
)

// TestEpochThreadInvariance is the headline guarantee of the epoch
// runner: identical (dataset, Config, seed, targets) produce
// byte-identical per-batch sample digests at Threads = 1, 2 and 8, and
// EpochStats totals always equal the sum of the per-worker IOStats.
// CI runs this under -race (scripts/check.sh, the thread-invariance
// step), which also exercises the fan-out for data races.
func TestEpochThreadInvariance(t *testing.T) {
	ds := testDataset(t)
	targets := testTargets(ds, 300)
	var ref *EpochStats
	for _, th := range []int{1, 2, 8} {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.BatchSize = 32
		cfg.Threads = th
		s, err := New(ds, cfg, uring.BackendPool)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.RunEpoch(targets, nil)
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
		if st.Latency.Total() != int64(st.Batches) {
			t.Fatalf("Threads=%d: latency histogram has %d observations, want %d", th, st.Latency.Total(), st.Batches)
		}
		if ref == nil {
			ref = st
			continue
		}
		if !slices.Equal(ref.Digests, st.Digests) {
			t.Fatalf("Threads=%d: per-batch digests diverge from Threads=1", th)
		}
		if ref.Sampled != st.Sampled || ref.IO.BytesRead != st.IO.BytesRead {
			t.Fatalf("Threads=%d: totals diverge: %d/%d sampled, %d/%d bytes",
				th, st.Sampled, ref.Sampled, st.IO.BytesRead, ref.IO.BytesRead)
		}
	}
	// The real io_uring backend must agree with the pool digests too.
	if uring.Probe().Ring {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.BatchSize = 32
		cfg.Threads = 4
		s, err := New(ds, cfg, uring.BackendIOURing)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.RunEpoch(targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ref.Digests, st.Digests) {
			t.Fatal("io_uring epoch digests diverge from pool digests")
		}
	} else {
		t.Log("io_uring unavailable; real backend skipped")
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
	st, err := s.RunEpoch(targets, nil)
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
	st, err := s.RunEpoch(targets, func(i int, b *Batch) error {
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
	ref, err := s.RunEpoch(targets, nil)
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
	st, err := sf.RunEpoch(targets, nil)
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
	_, err = s.RunEpoch(testTargets(ds, 100), func(i int, b *Batch) error {
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
	if _, err := s.RunEpoch(nil, nil); err == nil {
		t.Fatal("empty epoch accepted")
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

func TestLatencyHist(t *testing.T) {
	var h LatencyHist
	h.Observe(500 * time.Nanosecond) // bucket 0
	h.Observe(1 * time.Microsecond)  // bucket 0
	h.Observe(3 * time.Microsecond)  // bucket 1
	h.Observe(100 * time.Microsecond)
	h.Observe(10 * time.Second) // clamped into the last bucket
	if h.Total() != 5 {
		t.Fatalf("Total = %d, want 5", h.Total())
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[latencyBuckets-1] != 1 {
		t.Fatalf("unexpected bucket layout: %v", h.Counts)
	}
	if q := h.Quantile(0.5); q > 8*time.Microsecond {
		t.Fatalf("p50 = %v, want ≤ 8µs", q)
	}
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
	if h.String() == "(empty)" {
		t.Fatal("non-empty histogram rendered as empty")
	}
	var empty LatencyHist
	if empty.Quantile(0.99) != 0 || empty.String() != "(empty)" {
		t.Fatal("empty histogram misrendered")
	}
}

// TestLatencyHistMedianOfThree pins the nearest-rank fix: the rank is
// ceil(q·total), so the median of 3 observations is the 2nd. The old
// truncating rank returned the 1st — a median below two thirds of the
// samples.
func TestLatencyHistMedianOfThree(t *testing.T) {
	var h LatencyHist
	h.Observe(1 * time.Microsecond)   // bucket 0, upper edge 2µs
	h.Observe(40 * time.Microsecond)  // bucket 5, upper edge 64µs
	h.Observe(900 * time.Microsecond) // bucket 9, upper edge 1024µs
	if got := h.Quantile(0.5); got != 64*time.Microsecond {
		t.Fatalf("median of 3 = %v, want 64µs (2nd observation)", got)
	}
	if got := h.Quantile(1); got != 1024*time.Microsecond {
		t.Fatalf("max of 3 = %v, want 1.024ms (3rd observation)", got)
	}
	if got := h.Quantile(1.0 / 3.0); got != 2*time.Microsecond {
		t.Fatalf("p33 of 3 = %v, want 2µs (1st observation)", got)
	}
	// Median of an even count is the lower of the middle pair
	// (nearest-rank), never rank 0.
	var h2 LatencyHist
	h2.Observe(1 * time.Microsecond)
	h2.Observe(900 * time.Microsecond)
	if got := h2.Quantile(0.5); got != 2*time.Microsecond {
		t.Fatalf("median of 2 = %v, want 2µs", got)
	}
}

// TestLatencyHistBucketZeroLabel: bucket 0 absorbs sub-microsecond
// observations, so its label must read [0,2µs), not [1µs,2µs).
func TestLatencyHistBucketZeroLabel(t *testing.T) {
	var h LatencyHist
	h.Observe(300 * time.Nanosecond)
	if got, want := h.String(), "[0,2µs):1"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	h.Observe(3 * time.Microsecond)
	if got, want := h.String(), "[0,2µs):1 [2µs,4µs):1"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestEpochCancellation: canceling the context mid-epoch stops the
// feeder promptly — RunEpochCtx returns context.Canceled with partial
// stats whose Completed counts only the batches that actually ran, and
// every batch that did run landed in order with its recorded digest.
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
	st, err := s.RunEpochCtx(ctx, targets, func(i int, b *Batch) error {
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
	st, err := s.RunEpochCtx(ctx, testTargets(ds, 100), func(i int, b *Batch) error {
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
