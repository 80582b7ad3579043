package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"

	"ringsampler/internal/sample"
)

// latencyBuckets is the fixed bucket count of LatencyHist: bucket i
// counts batches whose latency fell in [2^i, 2^(i+1)) microseconds.
// Bucket 0 also absorbs sub-microsecond batches and the last bucket
// everything slower than ~2^23 µs (≈8.4 s) — far beyond any sane
// mini-batch.
const latencyBuckets = 24

// LatencyHist is a fixed-bucket log2 histogram of per-batch sampling
// latencies. Fixed buckets keep the epoch runner allocation-free on the
// hot path and make histograms from different runs directly addable.
type LatencyHist struct {
	Counts [latencyBuckets]int64
}

// Observe records one batch latency.
func (h *LatencyHist) Observe(d time.Duration) {
	us := d.Microseconds()
	b := 0
	if us > 0 {
		b = bits.Len64(uint64(us)) - 1
	}
	if b >= latencyBuckets {
		b = latencyBuckets - 1
	}
	h.Counts[b]++
}

// Total returns the number of observations.
func (h *LatencyHist) Total() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile returns an upper bound for the q-quantile latency (the upper
// edge of the bucket the quantile falls in). The rank is the ceiling of
// q·total — the standard nearest-rank definition — so the median of 3
// observations is the 2nd, not the 1st. q outside (0,1] is clamped; an
// empty histogram returns 0.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 1 / float64(total)
	}
	if q > 1 {
		q = 1
	}
	need := int64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	if need > total {
		need = total
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= need {
			return time.Duration(int64(1)<<(i+1)) * time.Microsecond
		}
	}
	return time.Duration(int64(1)<<latencyBuckets) * time.Microsecond
}

// String renders the non-empty buckets compactly, e.g.
// "[0,2µs):2 [64µs,128µs):12". Bucket 0 is labeled [0,2µs) because it
// absorbs sub-microsecond batches alongside the nominal [1µs,2µs)
// range.
func (h *LatencyHist) String() string {
	var b strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		lo := (time.Duration(int64(1)<<i) * time.Microsecond).String()
		if i == 0 {
			lo = "0"
		}
		hi := time.Duration(int64(1)<<(i+1)) * time.Microsecond
		fmt.Fprintf(&b, "[%s,%v):%d", lo, hi, c)
	}
	if b.Len() == 0 {
		return "(empty)"
	}
	return b.String()
}

// EpochStats aggregates one RunEpoch: merged ring-level I/O counters,
// the per-worker breakdown they were merged from, per-batch sample
// digests (in batch order), a batch-latency histogram, and wall-clock
// throughput. IO equals the sum of PerWorker plus what the epoch-start
// feature-cache re-admission did (FeatCacheAdmitted/Evicted and the
// FeatReads/FeatBytesRead of its fill), which no worker performed.
type EpochStats struct {
	// Batches is the number of mini-batches the target stream sharded
	// into; Targets is the epoch's target-node count.
	Batches int
	Targets int
	// Workers is how many workers actually ran: Config.Threads, capped
	// by the batch count.
	Workers int
	// Completed is how many batches actually finished sampling. It
	// equals Batches except when the epoch was canceled mid-run, in
	// which case only the first Completed dispatched batches have
	// digests and latency observations.
	Completed int
	// Sampled is the total sampled neighbor entries across all batches.
	Sampled int64
	// Digests holds each batch's sample digest in batch order. For a
	// fixed (dataset, Config, seed, targets) this slice is identical at
	// every thread count — the runner's determinism guarantee.
	Digests []uint64
	// IO is the merged ring-level I/O accounting; PerWorker is the
	// per-worker breakdown, indexed by pool slot.
	IO        IOStats
	PerWorker []IOStats
	// Latency is the per-batch sampling latency histogram.
	Latency LatencyHist
	// Seconds is the wall-clock epoch duration; EntriesPerSec and
	// BytesPerSec are the headline sampled-entry and device-byte
	// (IO.DeviceBytes) throughputs derived from it.
	Seconds       float64
	EntriesPerSec float64
	BytesPerSec   float64
	// ReadmitSeconds is the part of Seconds the epoch-start feature-cache
	// re-admission took (ranking plus fill): nothing to speak of when no
	// epoch completed since the last one, zero when the cache is static.
	ReadmitSeconds float64
}

// epochResult carries one finished mini-batch from a worker to the
// collector.
type epochResult struct {
	index int
	batch *Batch
	lat   time.Duration
	err   error
}

// RunEpoch samples every target through the real engine: the target
// stream is sharded into Config.BatchSize mini-batches and fanned out
// to the Config.Threads slots of a Pool that lives as long as the epoch:
// one OS-thread-pinned worker per slot.
//
// Output is thread-count-invariant: each batch's RNG is reseeded from
// sample.Mix(Config.Seed, batchIndex) rather than from the worker id,
// so Threads=1 and Threads=16 produce byte-identical Batch streams for
// the same seed — regardless of which worker ran which batch or in
// what order completions landed. Workers still contend for the device,
// so throughput (not output) is what scales with Threads.
//
// onBatch, when non-nil, is called once per batch with its index —
// strictly in batch order (0, 1, 2, ...), on the calling goroutine,
// with out-of-order completions buffered until their turn. A handler
// error aborts the epoch. Passing nil skips delivery; per-batch
// digests are recorded in EpochStats either way.
func (s *Sampler) RunEpoch(targets []uint32, onBatch func(index int, b *Batch) error) (*EpochStats, error) {
	return s.RunEpochCtx(context.Background(), targets, onBatch)
}

// RunEpochCtx is RunEpoch with graceful cancellation: when ctx is
// canceled mid-epoch no further batches are dispatched, every batch
// already in flight finishes (workers never die mid-batch), and the
// partial stats accumulated so far are returned ALONGSIDE the context's
// error — callers that want the drained numbers (cmd/epoch flushing on
// SIGINT) read the stats, callers that only check err lose nothing.
// EpochStats.Completed records how many batches actually ran.
func (s *Sampler) RunEpochCtx(ctx context.Context, targets []uint32, onBatch func(index int, b *Batch) error) (*EpochStats, error) {
	return s.RunEpochSeeded(ctx, s.cfg.Seed, targets, onBatch)
}

// RunEpochSeeded is RunEpochCtx with an explicit epoch seed overriding
// Config.Seed: batch bi draws from sample.Mix(seed, bi). Multi-epoch
// consumers (the trainer) pass a fresh per-epoch seed so each epoch
// resamples different neighborhoods while keeping the determinism
// contract — the batch stream is still a pure function of (dataset,
// config, targets, seed), independent of Threads.
//
// An epoch that fetches features is also what an adaptive feature cache
// learns from. On the collecting goroutine every batch's FeatNodes are
// counted; the counts are folded into the cache's heat only when the
// epoch completes — an error or a cancellation discards them, because
// which batches ran then depends on timing — and the next such epoch
// starts by re-admitting: the cache re-ranks by (heat, degree, id),
// swaps the rows that changed, and the bytes that fill read are charged
// to that epoch's IO (FeatReads/FeatBytesRead, and on an O_DIRECT feature
// file the windows' slack to AlignSlackBytes, as for sampling reads). Counts are sums, so they do not depend on the
// order batches arrive in: an epoch's device bytes are a pure function
// of (dataset, config, targets, seed) and the sampler's history of
// completed epochs — never of Threads or timing. The first epoch of a
// sampler has no history and reads exactly what a static degree-first
// cache reads.
func (s *Sampler) RunEpochSeeded(ctx context.Context, seed uint64, targets []uint32, onBatch func(index int, b *Batch) error) (*EpochStats, error) {
	cfg := &s.cfg
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: epoch needs at least one target")
	}
	numBatches := (len(targets) + cfg.BatchSize - 1) / cfg.BatchSize
	workers := min(cfg.Threads, numBatches)

	var (
		jobs  = make(chan Job)
		resCh = make(chan epochResult, workers)
		stop  = make(chan struct{})
		// fedCh reports how many batches the feeder actually dispatched;
		// buffered so the feeder never blocks when nobody asks (the
		// uncanceled path).
		fedCh = make(chan int, 1)
	)
	start := time.Now()
	stats := &EpochStats{
		Batches: numBatches,
		Targets: len(targets),
		Workers: workers,
		Digests: make([]uint64, numBatches),
	}
	learning := cfg.FetchFeatures && s.featHot.Adaptive() && s.learnMu.TryLock()
	if learning {
		defer s.learnMu.Unlock()
		t0 := time.Now()
		re, err := s.featHot.Readmit()
		if err != nil {
			return nil, fmt.Errorf("core: epoch feature-cache re-admission: %w", err)
		}
		stats.IO.FeatCacheAdmitted, stats.IO.FeatCacheEvicted = re.Admitted, re.Evicted
		stats.IO.FeatReads, stats.IO.FeatBytesRead = re.Reads, re.Bytes
		stats.IO.AlignSlackBytes = re.Moved - re.Bytes
		stats.ReadmitSeconds = time.Since(t0).Seconds()
	}
	// batchJob samples batch bi on whichever slot takes it and hands the
	// result to the collector.
	batchJob := func(bi int) Job {
		r := epochResult{index: bi}
		lo := bi * cfg.BatchSize
		hi := min(lo+cfg.BatchSize, len(targets))
		return Job{
			Run: func(w *Worker) (err error) {
				t0 := time.Now()
				r.batch, err = w.SampleBatchOpts(targets[lo:hi], BatchOpts{Seed: sample.Mix(seed, uint64(bi))})
				r.lat = time.Since(t0)
				return err
			},
			Done: func(err error) {
				if err != nil {
					r.err = fmt.Errorf("core: epoch batch %d: %w", bi, err)
				}
				select {
				case resCh <- r:
				case <-stop:
				}
			},
		}
	}
	pool := s.NewPool(workers, jobs)
	go func() {
		defer close(jobs)
		// The loop condition checks ctx so a cancellation always stops
		// dispatch, even when a slot is ready to receive at the same time
		// (select picks ready cases at random).
		bi := 0
		for ; bi < numBatches && ctx.Err() == nil; bi++ {
			select {
			case jobs <- batchJob(bi):
				continue
			case <-stop:
			case <-ctx.Done():
			}
			break
		}
		fedCh <- bi
	}()

	// In-order delivery: completions arrive in any order; pending parks
	// the early ones until every predecessor has been handed out.
	pending := make(map[int]*Batch)
	nextDeliver := 0
	var firstErr error
	expected := numBatches
	ctxDone := ctx.Done()
	canceled := false
collect:
	for got := 0; got < expected; {
		var r epochResult
		select {
		case r = <-resCh:
		case <-ctxDone:
			// Graceful drain: stop waiting for batches that were never
			// dispatched. The feeder reports how many actually went out
			// and the loop shrinks to collecting exactly those.
			canceled = true
			ctxDone = nil
			expected = <-fedCh
			continue
		}
		got++
		if r.err != nil {
			firstErr = r.err
			break
		}
		stats.Latency.Observe(r.lat)
		stats.Sampled += r.batch.TotalSampled()
		stats.Digests[r.index] = r.batch.Digest()
		stats.Completed++
		if learning {
			s.featHot.Count(r.batch.FeatNodes)
		}
		if onBatch == nil {
			continue
		}
		pending[r.index] = r.batch
		for {
			b, ok := pending[nextDeliver]
			if !ok {
				break
			}
			delete(pending, nextDeliver)
			if err := onBatch(nextDeliver, b); err != nil {
				firstErr = fmt.Errorf("core: epoch batch %d handler: %w", nextDeliver, err)
				break collect
			}
			nextDeliver++
		}
	}
	close(stop)
	pool.Close()
	if learning {
		if firstErr != nil || canceled {
			s.featHot.Discard()
		} else {
			s.featHot.Fold()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	stats.Seconds = time.Since(start).Seconds()
	stats.PerWorker = pool.SlotStats()
	for _, st := range stats.PerWorker {
		stats.IO.Add(st)
	}
	if stats.Seconds > 0 {
		stats.EntriesPerSec = float64(stats.Sampled) / stats.Seconds
		stats.BytesPerSec = float64(stats.IO.DeviceBytes()) / stats.Seconds
	}
	if canceled {
		return stats, context.Cause(ctx)
	}
	return stats, nil
}
