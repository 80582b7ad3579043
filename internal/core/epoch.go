package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"ringsampler/internal/sample"
)

// Quantile returns the nearest-rank q-quantile of ds: its ⌈q·n⌉-th
// smallest value, so the median of three is the second and the median
// of two the lower. q is clamped to (0,1]; an empty ds returns 0.
func Quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Sorted(slices.Values(ds))
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// EpochStats aggregates one RunEpochSeeded: merged ring-level I/O
// counters, the per-worker breakdown they were merged from, per-batch
// sample digests and latencies (in batch order), and wall-clock
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
	// Completed is how many batches finished sampling. It is below
	// Batches only in a canceled epoch; the batches that did not
	// complete have a zero digest and latency.
	Completed int
	// Sampled is the total sampled neighbor entries across all batches.
	Sampled int64
	// Digests holds each batch's sample digest in batch order. For a
	// fixed (dataset, Config, seed, targets) this slice is identical at
	// every thread count — the runner's determinism guarantee.
	Digests []uint64
	// Latencies holds each batch's sampling latency in batch order: the
	// exact per-batch distribution (Quantile), zero for a batch that did
	// not complete.
	Latencies []time.Duration
	// IO is the merged ring-level I/O accounting; PerWorker is the
	// per-worker breakdown, indexed by pool slot.
	IO        IOStats
	PerWorker []IOStats
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

// epochResult is one batch's report to the collector: what it sampled,
// why it failed, or — both nil — that it never ran.
type epochResult struct {
	index int
	batch *Batch
	lat   time.Duration
	err   error
}

// RunEpochSeeded samples every target through the real engine: the
// target stream is sharded into Config.BatchSize mini-batches and fanned
// out to the Config.Threads slots of a Pool that lives as long as the
// epoch, one worker per slot, locked to an OS thread per batch.
//
// Output is thread-count-invariant: batch bi draws from
// sample.Mix(seed, bi), never from the worker id, so Threads=1 and
// Threads=16 produce byte-identical Batch streams — regardless of which
// worker ran which batch or in what order completions landed. Workers
// still contend for the device, so throughput (not output) is what
// scales with Threads. Multi-epoch consumers (the trainer) pass a fresh
// seed per epoch so each epoch resamples different neighborhoods; the
// root package's RunEpoch passes Config.Seed.
//
// onBatch, when non-nil, is called once per batch with its index —
// strictly in batch order, on the calling goroutine, with out-of-order
// completions parked until their turn. A handler error or a failed
// batch aborts the epoch and returns that error. When ctx ends, batches
// not yet started never run and batches in flight finish (workers never
// die mid-batch); if any batch did not complete, the partial stats are
// returned alongside ctx's error. An epoch whose every batch completed
// returns nil, whenever ctx ended.
//
// Every batch reports exactly once: a slot with what it sampled or why
// it failed, or — when the epoch ended before the batch started — the
// feeder or the slot with nothing. The collector receives exactly
// Batches results and needs no other signal to finish.
//
// An epoch that fetches features is also what an adaptive feature cache
// learns from. On the collecting goroutine every batch's FeatNodes are
// counted; the counts are folded into the cache's heat only when every
// batch completed — otherwise they are discarded, because which batches
// ran then depends on timing — and the next such epoch starts by
// re-admitting: the cache re-ranks by (heat, degree, id), swaps the rows
// that changed, and the bytes that fill read are charged to that
// epoch's IO (FeatReads/FeatBytesRead, and on an O_DIRECT feature file
// the windows' slack to AlignSlackBytes, as for sampling reads). Counts
// are sums, so they do not depend on the order batches arrive in: an
// epoch's device bytes are a pure function of (dataset, config,
// targets, seed) and the sampler's history of completed epochs — never
// of Threads or timing. The first epoch of a sampler has no history and
// reads exactly what a static degree-first cache reads.
func (s *Sampler) RunEpochSeeded(ctx context.Context, seed uint64, targets []uint32, onBatch func(index int, b *Batch) error) (*EpochStats, error) {
	cfg := &s.cfg
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: epoch needs at least one target")
	}
	// Not (len+size-1)/size, which wraps for a BatchSize near MaxInt.
	numBatches := (len(targets)-1)/cfg.BatchSize + 1
	workers := min(cfg.Threads, numBatches)
	start := time.Now()
	stats := &EpochStats{
		Batches:   numBatches,
		Targets:   len(targets),
		Workers:   workers,
		Digests:   make([]uint64, numBatches),
		Latencies: make([]time.Duration, numBatches),
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

	// The epoch's own context ends with ctx, a failed batch or a failing
	// handler; a batch that has not started by then only reports.
	ectx, abort := context.WithCancel(ctx)
	defer abort()
	jobs := make(chan Job)
	// One result per slot parks while the collector runs the handler.
	resCh := make(chan epochResult, workers)
	batchJob := func(bi int) Job {
		r := epochResult{index: bi}
		lo := bi * cfg.BatchSize
		hi := min(lo+cfg.BatchSize, len(targets))
		return Job{
			Run: func(w *Worker) (err error) {
				if ectx.Err() != nil {
					return nil
				}
				t0 := time.Now()
				r.batch, err = w.SampleBatchOpts(targets[lo:hi], BatchOpts{Seed: sample.Mix(seed, uint64(bi))})
				r.lat = time.Since(t0)
				return err
			},
			Done: func(err error) {
				if err != nil {
					r.err = fmt.Errorf("core: epoch batch %d: %w", bi, err)
				}
				resCh <- r
			},
		}
	}
	pool := s.NewPool(workers, jobs)
	go func() {
		defer close(jobs)
		for bi := range numBatches {
			select {
			case jobs <- batchJob(bi):
			case <-ectx.Done():
				resCh <- epochResult{index: bi}
			}
		}
	}()

	// In-order delivery: pending parks each batch until every
	// predecessor has been handed out.
	pending := make([]*Batch, numBatches)
	next := 0
	var firstErr error
	for range numBatches {
		r := <-resCh
		if firstErr != nil || r.batch == nil && r.err == nil {
			continue
		}
		if r.err != nil {
			firstErr = r.err
			abort()
			continue
		}
		stats.Latencies[r.index] = r.lat
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
		for ; next < numBatches && pending[next] != nil; next++ {
			b := pending[next]
			pending[next] = nil
			if err := onBatch(next, b); err != nil {
				firstErr = fmt.Errorf("core: epoch batch %d handler: %w", next, err)
				abort()
				break
			}
		}
	}
	pool.Close()
	complete := firstErr == nil && stats.Completed == numBatches
	if learning {
		if complete {
			s.featHot.Fold()
		} else {
			s.featHot.Discard()
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
	if !complete {
		return stats, context.Cause(ctx)
	}
	return stats, nil
}
