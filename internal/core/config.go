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

// DefaultArenaBytes is the per-worker registered arena size when
// Config.FixedBuffers is on and ArenaBytes is 0: big enough that every
// layer of the default fanout/batch fits, small enough that 8 workers
// cost tens of megabytes.
const DefaultArenaBytes = 8 << 20

// Config controls the engine. The ablation switches (AsyncPipeline,
// OffsetSampling) exist so the paper's design choices can be measured
// against their alternatives; production use leaves both true.
type Config struct {
	// Fanouts is the per-layer sample count, outermost layer first.
	Fanouts []int
	// BatchSize is the number of target nodes per mini-batch.
	BatchSize int
	// Threads is the worker count for epoch runs (mini-batch-per-
	// thread, Fig 3a): RunEpoch fans mini-batches out to this many
	// OS-thread-pinned workers. Output never depends on it — per-batch RNG
	// reseeding makes the sampled stream identical at every thread
	// count — only throughput does.
	Threads int
	// RingSize is the SQ depth of each worker's ring; one I/O group is
	// at most one ring full (paper default 512).
	RingSize int
	// AsyncPipeline overlaps preparing group k+1 with draining group
	// k's completions (Fig 3b). False degrades to submit-then-wait.
	AsyncPipeline bool
	// OffsetSampling fetches only the sampled entries via offset-based
	// reads (Fig 2). False degrades to fetching full neighbor lists.
	OffsetSampling bool
	// Seed drives all sampling randomness. Identical seeds yield
	// bit-identical sample sets.
	Seed uint64
	// Strategy names the draw strategy (StrategyUniform/Weighted/Walk);
	// empty selects uniform — the paper's Floyd fanout draws, byte-
	// identical to the engine before strategies existed. Every strategy
	// rides the same ring pipeline and keeps the determinism contract:
	// output is a pure function of (dataset, config, targets, Seed),
	// invariant under Threads and backend.
	Strategy string
	// MaxIORetries bounds how many times one ring read is resubmitted
	// after a transient result (-EINTR/-EAGAIN, or a short read's
	// remaining byte range) before the worker surfaces a structured
	// *IOError. 0 disables retries entirely. It governs the workers'
	// sampling and feature reads; the cache fills at New and at
	// re-admission run outside any worker and keep the default bound,
	// uring.DefaultRetries.
	MaxIORetries int
	// FixedBuffers registers each worker's workspace arena with its ring
	// (IORING_REGISTER_BUFFERS) and issues IORING_OP_READ_FIXED, skipping
	// per-read page pinning on the real backend. Pool/sim emulate the
	// validation, so conformance runs everywhere; on the real backend the
	// knob downgrades (with one log line) when the kernel refuses
	// registration. Byte output is identical either way.
	FixedBuffers bool
	// RegisteredFiles registers the edge file with each worker's ring
	// (IORING_REGISTER_FILES) so SQEs carry IOSQE_FIXED_FILE and skip the
	// per-SQE fd lookup. Real backend only; accepted and ignored by
	// pool/sim, downgraded with a log line when the kernel refuses.
	RegisteredFiles bool
	// SQPoll creates each worker's ring with IORING_SETUP_SQPOLL: a
	// kernel thread consumes the SQ and steady-state submission costs
	// zero syscalls. Real backend only; accepted and ignored by pool/sim,
	// downgraded with a log line when the kernel refuses.
	SQPoll bool
	// Depth caps each worker's in-flight read requests. 0 (default)
	// bounds staging only by the ring's own SQ/CQ capacity — the deepest
	// pipeline. A positive value trades pipeline depth for memory (the
	// O_DIRECT path allocates aligned scratch per in-flight request) and
	// latency.
	Depth int
	// ArenaBytes sizes each worker's registered workspace arena when
	// FixedBuffers is on (0 selects DefaultArenaBytes). Layers whose
	// buffers outgrow the arena fall back to plain reads for that layer —
	// correctness never depends on the arena being big enough.
	ArenaBytes int64
	// CacheBudgetBytes is the memory budget (bytes, accounted through
	// memctl) for the hot-neighbor cache: the complete neighbor lists of
	// the highest-degree nodes, pinned at sampler construction and
	// consulted before any read is planned, so cached nodes never touch
	// the ring. 0 (the default) disables the cache. Sampling decisions
	// are identical with the cache on or off — only device traffic
	// changes — so Batch digests never depend on this knob.
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
	// the budget is large enough to carry the counters. 0 disables it.
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
		Fanouts:        append([]int(nil), DefaultFanouts...),
		BatchSize:      1024,
		Threads:        8,
		RingSize:       512,
		AsyncPipeline:  true,
		OffsetSampling: true,
		Seed:           1,
		MaxIORetries:   uring.DefaultRetries,
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
	if c.Threads <= 0 {
		return fmt.Errorf("core: thread count %d must be positive", c.Threads)
	}
	if c.RingSize <= 0 {
		return fmt.Errorf("core: ring size %d must be positive", c.RingSize)
	}
	if c.MaxIORetries < 0 {
		return fmt.Errorf("core: max I/O retries %d must be non-negative", c.MaxIORetries)
	}
	if !ValidStrategy(c.Strategy) {
		return fmt.Errorf("core: unknown sampling strategy %q (known: %v)", c.Strategy, StrategyNames())
	}
	if c.Depth < 0 {
		return fmt.Errorf("core: depth %d must be non-negative", c.Depth)
	}
	if c.ArenaBytes < 0 {
		return fmt.Errorf("core: arena bytes %d must be non-negative", c.ArenaBytes)
	}
	if c.CacheBudgetBytes < 0 {
		return fmt.Errorf("core: cache budget %d must be non-negative", c.CacheBudgetBytes)
	}
	if c.FeatureCacheBudgetBytes < 0 {
		return fmt.Errorf("core: feature cache budget %d must be non-negative", c.FeatureCacheBudgetBytes)
	}
	return nil
}
