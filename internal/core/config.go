// Package core implements the RingSampler engine itself (paper §3):
// offset-based neighbor sampling over an on-disk edge file, per-thread
// workers with private rings/RNG/workspaces and zero cross-thread
// synchronization, an asynchronous I/O-group pipeline overlapping
// submission preparation with completion draining, and between-layer
// sort+dedup frontier building, all run for real against a uring
// backend (worker.go).
package core

import (
	"fmt"

	"ringsampler/internal/uring"
)

// DefaultFanouts is the paper's 3-layer GraphSAGE fanout {20,15,10}.
var DefaultFanouts = []int{20, 15, 10}

// DefaultArenaBytes is the O_DIRECT scratch arena a worker allocates
// the first time it opens an O_DIRECT file: 512 window chunks of 16 KiB,
// one per read of a full default ring. Windows beyond it, or bigger than
// a chunk, take heap slots — correctness never depends on the arena.
const DefaultArenaBytes = 8 << 20

// MaxThreads bounds Config.Threads. Every worker owns a ring and holds
// a locked OS thread while it runs a job, so an unbounded count would
// let one flag exhaust the process's thread limit (Go's default is
// 10,000) and crash it instead of being refused.
const MaxThreads = 1024

// Config controls the engine. There is one sampling path, offset-based
// reads (Fig 2), and one pipeline, the asynchronous I/O group pipeline
// (Fig 3b); neither is a knob.
type Config struct {
	// Fanouts is the per-layer sample count, outermost layer first.
	Fanouts []int
	// BatchSize is the number of target nodes per mini-batch.
	BatchSize int
	// Threads is the worker count for epoch runs (mini-batch-per-
	// thread, Fig 3a): RunEpoch fans mini-batches out to this many
	// workers, each locked to an OS thread for the length of a batch.
	// Output never depends on it — per-batch RNG reseeding makes the
	// sampled stream identical at every thread count — only throughput
	// does.
	Threads int
	// RingSize is the SQ depth of each worker's ring; one I/O group is
	// at most one ring full (paper default 512).
	RingSize int
	// Seed drives all sampling randomness. Identical seeds yield
	// bit-identical sample sets.
	Seed uint64
	// CacheBudgetBytes is the memory budget (bytes, accounted through
	// memctl) for the neighbor cache: complete neighbor lists, shortest
	// first, pinned at sampler construction and consulted before any
	// read is planned, so cached nodes never touch the ring. A visit to
	// an uncached list costs at least one read however long the list,
	// so the shortest lists save the most reads per byte. 0 (the
	// default) disables the cache. Sampling decisions are identical with
	// the cache on or off — only device traffic changes — so Batch
	// digests never depend on this knob.
	CacheBudgetBytes int64
	// FetchFeatures appends the feature stage to every batch: after the
	// sampling layers complete, the deduplicated union of the batch's
	// nodes has its feature vectors fetched through the worker's feature
	// ring into Batch.Features. Requires a dataset with a feature file.
	// The stage runs after all draws, so it never perturbs the sampled
	// node set — only Batch digests (which fold the feature payload) and
	// device traffic change.
	FetchFeatures bool
	// FeatureCacheBudgetBytes is the memctl-accounted budget for the
	// hot-node feature cache — a second budget axis next to
	// CacheBudgetBytes, pinning the feature vectors of the hottest nodes
	// so their fetches never touch the ring: the highest-degree nodes at
	// construction, and from then on the nodes completed epochs fetched
	// most often, re-admitted at epoch boundaries (RunEpochSeeded) when
	// the budget is at least cache.LearnBudget and a static cache could
	// not pin every row under it. 0 disables it.
	// Requires a dataset with a feature file. Feature payloads are
	// identical at any budget — only device traffic changes.
	FeatureCacheBudgetBytes int64
	// WrapRing, when non-nil, wraps each of a worker's rings right after
	// construction — the hook fault-injection tests and resilience
	// experiments use to interpose uring.NewFault (or any other
	// decorator) without a separate backend name. It is called once for
	// the edge ring (at worker construction) and once for the feature
	// ring (on the first feature fetch), with the same workerID.
	// Production use leaves it nil.
	WrapRing func(r uring.Ring, workerID int) (uring.Ring, error)
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{
		Fanouts:   append([]int(nil), DefaultFanouts...),
		BatchSize: 1024,
		Threads:   8,
		RingSize:  512,
		Seed:      1,
	}
}

func (c *Config) validate() error {
	if len(c.Fanouts) == 0 {
		return fmt.Errorf("core: config needs at least one fanout layer")
	}
	for i, f := range c.Fanouts {
		if f <= 0 {
			return fmt.Errorf("core: fanout[%d] = %d must be positive", i, f)
		}
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("core: batch size %d must be positive", c.BatchSize)
	}
	if c.Threads <= 0 || c.Threads > MaxThreads {
		return fmt.Errorf("core: thread count %d must be in [1,%d]", c.Threads, MaxThreads)
	}
	if c.RingSize <= 0 {
		return fmt.Errorf("core: ring size %d must be positive", c.RingSize)
	}
	if c.CacheBudgetBytes < 0 {
		return fmt.Errorf("core: cache budget %d must be non-negative", c.CacheBudgetBytes)
	}
	if c.FeatureCacheBudgetBytes < 0 {
		return fmt.Errorf("core: feature cache budget %d must be non-negative", c.FeatureCacheBudgetBytes)
	}
	return nil
}
