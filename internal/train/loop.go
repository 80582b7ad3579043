package train

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/sample"
)

// epochSalt decorrelates per-epoch sampling seeds from the raw config
// seed, so epoch e resamples different neighborhoods than a plain
// single-epoch run with the same seed.
const epochSalt = 0xe90c45a1

// EpochSeed derives epoch e's sampling seed from the config seed. Both
// pipeline modes use it, which is why they see identical batch streams.
func EpochSeed(seed uint64, epoch int) uint64 {
	return sample.Mix(seed^epochSalt, uint64(epoch))
}

// EpochStats reports one training epoch. The determinism contract makes
// Loss, Accuracy, and WeightsDigest identical across Config.Threads and
// across the overlapped/serialized pipeline modes; only the timing
// fields vary run to run.
type EpochStats struct {
	Epoch   int `json:"epoch"`
	Batches int `json:"batches"`
	Targets int `json:"targets"`

	// Loss is the mean cross-entropy over the epoch's targets; Accuracy
	// the fraction classified correctly (both measured at the weights
	// current when each batch was consumed, the usual running-epoch
	// metric).
	Loss     float64 `json:"loss"`
	Accuracy float64 `json:"accuracy"`

	// Seconds is the epoch wall clock; ComputeSeconds the part spent
	// inside Model.Step; StallSeconds the remainder — time the trainer
	// sat waiting on sampling+fetch I/O. In the overlapped mode workers
	// sample batch i+1 while the trainer computes on batch i, so
	// StallSeconds shrinks toward zero as compute covers the I/O;
	// serialized mode pays the full sample latency in it.
	Seconds        float64 `json:"seconds"`
	ComputeSeconds float64 `json:"computeSeconds"`
	StallSeconds   float64 `json:"stallSeconds"`
	// OverlapEfficiency is ComputeSeconds/Seconds — the fraction of the
	// epoch the trainer's core did useful model work. 1.0 means perfect
	// overlap (the pipeline kept the trainer fed); serialized runs are
	// bounded by compute/(compute+I/O).
	OverlapEfficiency float64 `json:"overlapEfficiency"`

	// Sampled is the epoch's sampled neighbor entries; EntriesPerSec the
	// end-to-end (sample+fetch+train) throughput derived from it.
	Sampled       int64   `json:"sampled"`
	EntriesPerSec float64 `json:"entriesPerSec"`

	// WeightsDigest is Model.WeightsDigest after the epoch.
	WeightsDigest string `json:"weightsDigest"`

	// IO is what sampling and fetching this epoch's batches moved: the
	// epoch runner's merged counters (feature-cache re-admission
	// included) in the overlapped mode, the single worker's in the
	// serialized one. ReadmitSeconds is the runner's share of Seconds
	// spent re-ranking and refilling the feature cache before the first
	// batch (always zero serialized: only the epoch runner teaches the
	// cache).
	IO             core.IOStats `json:"io"`
	ReadmitSeconds float64      `json:"readmitSeconds"`
}

// Trainer drives a Model over a sampler's epoch batches against a
// per-node label array (storage.Dataset.Labels).
type Trainer struct {
	Model  *Model
	Labels []uint32
}

// finish derives the quotient fields shared by both pipeline modes.
func (t *Trainer) finish(st *EpochStats, sumLoss float64, correct int, start time.Time) {
	st.Seconds = time.Since(start).Seconds()
	st.StallSeconds = st.Seconds - st.ComputeSeconds
	if st.StallSeconds < 0 {
		st.StallSeconds = 0
	}
	if st.Seconds > 0 {
		st.OverlapEfficiency = st.ComputeSeconds / st.Seconds
		st.EntriesPerSec = float64(st.Sampled) / st.Seconds
	}
	if st.Batches > 0 {
		st.Loss = sumLoss / float64(st.Batches)
	}
	if st.Targets > 0 {
		st.Accuracy = float64(correct) / float64(st.Targets)
	}
	st.WeightsDigest = fmt.Sprintf("%016x", t.Model.WeightsDigest())
}

// EpochOverlapped trains one epoch through the double-buffered
// producer/consumer pipeline: RunEpochSeeded's workers sample and fetch
// upcoming batches concurrently while Model.Step computes on the
// current one, with the runner's in-order delivery guaranteeing the
// trainer consumes batches 0,1,2,... exactly — the same fixed gradient
// order the serialized mode uses, which is why the two produce
// bit-identical weights. Requires Config.FetchFeatures.
func (t *Trainer) EpochOverlapped(ctx context.Context, s *core.Sampler, targets []uint32, epoch int) (*EpochStats, error) {
	if !s.Config().FetchFeatures {
		return nil, fmt.Errorf("train: sampler must run with Config.FetchFeatures")
	}
	st := &EpochStats{Epoch: epoch, Targets: len(targets)}
	var sumLoss float64
	var correct int
	start := time.Now()
	es, err := s.RunEpochSeeded(ctx, EpochSeed(s.Config().Seed, epoch), targets, func(_ int, b *core.Batch) error {
		t0 := time.Now()
		loss, corr, err := t.Model.Step(b, t.Labels)
		st.ComputeSeconds += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		st.Batches++
		sumLoss += loss
		correct += corr
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.Sampled = es.Sampled
	st.IO, st.ReadmitSeconds = es.IO, es.ReadmitSeconds
	t.finish(st, sumLoss, correct, start)
	return st, nil
}

// EpochSerialized trains one epoch with no overlap: a single worker
// samples+fetches each batch to completion, then the trainer computes
// on it, then the next batch starts — the reference the benchmark's
// overlapped mode is measured against. Batch bi is seeded exactly as
// the epoch runner seeds it (Mix(EpochSeed, bi)), so the batch stream —
// and therefore the weight trajectory — is bit-identical to
// EpochOverlapped at any thread count.
func (t *Trainer) EpochSerialized(ctx context.Context, s *core.Sampler, targets []uint32, epoch int) (*EpochStats, error) {
	cfg := s.Config()
	if !cfg.FetchFeatures {
		return nil, fmt.Errorf("train: sampler must run with Config.FetchFeatures")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("train: epoch needs at least one target")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w, err := s.NewWorker(0)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	epochSeed := EpochSeed(cfg.Seed, epoch)
	numBatches := (len(targets) + cfg.BatchSize - 1) / cfg.BatchSize
	st := &EpochStats{Epoch: epoch, Targets: len(targets)}
	var sumLoss float64
	var correct int
	start := time.Now()
	for bi := 0; bi < numBatches; bi++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lo := bi * cfg.BatchSize
		hi := lo + cfg.BatchSize
		if hi > len(targets) {
			hi = len(targets)
		}
		b, err := w.SampleBatchSeeded(targets[lo:hi], sample.Mix(epochSeed, uint64(bi)))
		if err != nil {
			return nil, fmt.Errorf("train: serialized batch %d: %w", bi, err)
		}
		st.Sampled += b.TotalSampled()
		t0 := time.Now()
		loss, corr, err := t.Model.Step(b, t.Labels)
		st.ComputeSeconds += time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		st.Batches++
		sumLoss += loss
		correct += corr
	}
	st.IO = w.IOStats()
	t.finish(st, sumLoss, correct, start)
	return st, nil
}

// Run trains for epochs epochs in the selected mode, returning the
// per-epoch stats in order. A convenience wrapper both cmd/epoch -train
// and exp.TrainSweep drive.
func (t *Trainer) Run(ctx context.Context, s *core.Sampler, targets []uint32, epochs int, serialized bool) ([]*EpochStats, error) {
	if epochs <= 0 {
		return nil, fmt.Errorf("train: epochs %d must be positive", epochs)
	}
	out := make([]*EpochStats, 0, epochs)
	for e := 0; e < epochs; e++ {
		var (
			st  *EpochStats
			err error
		)
		if serialized {
			st, err = t.EpochSerialized(ctx, s, targets, e)
		} else {
			st, err = t.EpochOverlapped(ctx, s, targets, e)
		}
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
	return out, nil
}
