// Package ringsampler is the public surface of the RingSampler
// reproduction: build or open an on-disk graph dataset, then sample
// GraphSAGE-style neighborhoods through per-thread rings with
// offset-based reads (paper: "RingSampler: GNN sampling on large-scale
// graphs with io_uring", HotStorage '25).
//
//	err := ringsampler.GenerateDataset("data/g", "rmat", 100_000, 1_600_000, 1)
//	ds, err := ringsampler.Open("data/g")
//	defer ds.Close()
//	s, err := ringsampler.NewSampler(ds, ringsampler.DefaultConfig())
//	stats, err := ringsampler.RunEpoch(s, targets, func(i int, b *ringsampler.Batch) error {
//		return train(b) // batches arrive strictly in order
//	})
//
// RunEpoch fans mini-batches out across Config.Threads workers, each
// locked to an OS thread for the length of a batch, and is
// thread-count-invariant: the sampled stream is a pure function of
// (dataset, config, seed, targets). For single-batch or custom
// scheduling, drive a Worker directly via s.NewWorker +
// w.SampleBatchOpts, which samples one batch from an explicit seed.
package ringsampler

import (
	"context"

	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// Dataset is an opened on-disk graph (edge file + in-memory offset
// index).
type Dataset = storage.Dataset

// Config configures the sampling engine.
type Config = core.Config

// Sampler is the engine; Worker is one sampling thread with a private
// ring; Batch is one mini-batch's layered sample result; EpochStats is
// the aggregated result of a RunEpoch.
type (
	Sampler    = core.Sampler
	Worker     = core.Worker
	Batch      = core.Batch
	Layer      = core.Layer
	EpochStats = core.EpochStats
)

// DefaultConfig returns the paper's default configuration: fanouts
// {20,15,10}, batch size 1024, 8 threads and ring size 512. Offset
// sampling and the asynchronous pipeline are the engine's only path,
// not options.
func DefaultConfig() Config { return core.DefaultConfig() }

// GenerateDataset builds a synthetic dataset in dir: kind "rmat"
// (skewed, paper-shaped) or "uniform", with the given node and edge
// counts. Deterministic for a fixed seed; the preprocessing pipeline
// (generate -> external sort -> edge file + offset index) is fully
// out-of-core.
func GenerateDataset(dir, kind string, nodes, edges int64, seed uint64) error {
	_, err := gen.Generate(dir, kind, kind, nodes, edges, seed)
	return err
}

// GenOptions are the optional extras of dataset generation; the
// interesting knob is FeatureDim, which adds a fixed-stride f32 node
// feature file (features.bin) sampled deterministically per node.
type GenOptions = gen.Options

// GenerateDatasetWith is GenerateDataset with explicit options —
// notably GenOptions.FeatureDim to emit per-node feature vectors that
// workers can fetch through the ring pipeline (Config.FetchFeatures or
// BatchOpts.Features).
func GenerateDatasetWith(dir, kind string, nodes, edges int64, seed uint64, o GenOptions) error {
	_, err := gen.GenerateWith(dir, kind, kind, nodes, edges, seed, o)
	return err
}

// BatchOpts are per-batch sampling options for Worker.SampleBatchOpts
// (explicit fanouts, seed, and the feature-fetch stage).
type BatchOpts = core.BatchOpts

// OpenOptions configures how a dataset's edge file is opened; the
// interesting knob is Direct (O_DIRECT with probed alignment, falling
// back to buffered when unsupported).
type OpenOptions = storage.OpenOptions

// Open opens and validates a dataset directory.
func Open(dir string) (*Dataset, error) { return storage.Open(dir) }

// OpenWith opens and validates a dataset directory with explicit open
// options (e.g. O_DIRECT edge-file reads).
func OpenWith(dir string, opts OpenOptions) (*Dataset, error) {
	return storage.OpenWith(dir, opts)
}

// Probe reports the io_uring capability set of this environment:
// whether the base ring works.
func Probe() uring.Caps { return uring.Probe() }

// NewSampler binds the engine to ds using the best ring backend
// available: real io_uring when the kernel and sandbox allow it, the
// portable pread pool otherwise.
func NewSampler(ds *Dataset, cfg Config) (*Sampler, error) {
	return core.New(ds, cfg, uring.Auto())
}

// RunEpoch samples every target through s: the stream is sharded into
// Config.BatchSize mini-batches fanned out to Config.Threads workers,
// each locked to an OS thread per batch. Output is
// thread-count-invariant — each batch's RNG is reseeded from
// (Config.Seed, batchIndex), so the same (dataset, config, seed,
// targets) yields a byte-identical Batch stream at every thread count. onBatch (optional, may be nil) is
// invoked strictly in batch order on the calling goroutine.
func RunEpoch(s *Sampler, targets []uint32, onBatch func(index int, b *Batch) error) (*EpochStats, error) {
	return RunEpochCtx(context.Background(), s, targets, onBatch)
}

// RunEpochCtx is RunEpoch with graceful cancellation: when ctx is
// canceled mid-epoch no further batches start, in-flight batches
// finish, and if any batch did not complete the partial stats are
// returned alongside the context's error (EpochStats.Completed says how
// many batches ran).
func RunEpochCtx(ctx context.Context, s *Sampler, targets []uint32, onBatch func(index int, b *Batch) error) (*EpochStats, error) {
	return s.RunEpochSeeded(ctx, s.Config().Seed, targets, onBatch)
}
