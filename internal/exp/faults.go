package exp

import (
	"fmt"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// FaultPoint is one row of the fault-resilience sweep: the real engine
// sampling through a fault-injecting ring at one fault intensity.
// Identical reports whether the sampled neighborhoods were
// byte-identical to the fault-free run — the invariant the retry path
// exists to protect.
type FaultPoint struct {
	// Rate is the per-request fault intensity the plan was built from.
	Rate float64
	// Entries is the total sampled neighbor entries.
	Entries int64
	// Seconds is the wall-clock sampling time over real I/O.
	Seconds float64
	// EntriesPerSec is the headline throughput.
	EntriesPerSec float64
	// IO is the worker's retry-path accounting.
	IO core.IOStats
	// Injected counts what the fault ring actually threw at the worker.
	Injected uring.FaultStats
	// Identical is true when the sampled output matches the fault-free
	// digest bit for bit.
	Identical bool
}

// faultPlanAt scales one intensity knob into a full plan: transient
// errnos and short reads at the headline rate, submission rejections
// and completion delays alongside.
func faultPlanAt(rate float64, seed uint64) uring.FaultPlan {
	return uring.FaultPlan{
		Seed:          seed,
		TransientRate: rate,
		ShortReadRate: rate,
		RejectRate:    rate / 2,
		DelayRate:     rate,
	}
}

// FaultSweep runs the same fixed sampling workload (o.Targets nodes in
// o.BatchSize batches, one worker, real engine on real files) once
// fault-free and once per rate with a seeded fault-injecting ring, and
// reports throughput plus retry accounting at each point. All sampling
// randomness is fixed, so every point must produce byte-identical
// neighborhoods; a non-Identical point is a correctness bug, not noise.
func FaultSweep(ds *storage.Dataset, o Options, backend uring.Backend, rates []float64, seed uint64) ([]FaultPoint, error) {
	if o.Targets <= 0 {
		return nil, fmt.Errorf("exp: fault sweep needs positive target count, got %d", o.Targets)
	}
	refDigest, ref, err := faultRun(ds, o, backend, 0, seed)
	if err != nil {
		return nil, fmt.Errorf("exp: fault-free reference run: %w", err)
	}
	ref.Identical = true
	out := []FaultPoint{ref}
	for _, rate := range rates {
		digest, p, err := faultRun(ds, o, backend, rate, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: fault sweep at rate %v: %w", rate, err)
		}
		p.Identical = digest == refDigest
		out = append(out, p)
	}
	return out, nil
}

// faultRun executes one sweep point and returns the output digest.
func faultRun(ds *storage.Dataset, o Options, backend uring.Backend, rate float64, seed uint64) (uint64, FaultPoint, error) {
	cfg := core.DefaultConfig()
	if o.BatchSize > 0 {
		cfg.BatchSize = o.BatchSize
	}
	var faultRing uring.Ring
	if rate > 0 {
		// The default retry budget is sized for real-world transient
		// rates; at a 20% injected rate an 8-deep fault chain occurs
		// roughly once per ~1500 requests, so give the sweep enough
		// headroom that exhaustion probability is negligible (0.4^64)
		// at every swept intensity.
		cfg.MaxIORetries = 64
		cfg.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
			fr, err := uring.NewFault(r, faultPlanAt(rate, sample.Mix(seed, uint64(workerID))))
			if err != nil {
				return nil, err
			}
			faultRing = fr
			return fr, nil
		}
	}
	s, err := core.New(ds, cfg, backend)
	if err != nil {
		return 0, FaultPoint{}, err
	}
	w, err := s.NewWorker(0)
	if err != nil {
		return 0, FaultPoint{}, err
	}
	defer w.Close()

	rng := sample.NewRNG(sample.Mix(seed, 0xfa))
	targets := UniformTargets(&rng, ds.NumNodes(), o.Targets)
	var digest uint64
	var entries int64
	start := time.Now()
	for at := 0; at < len(targets); at += cfg.BatchSize {
		end := at + cfg.BatchSize
		if end > len(targets) {
			end = len(targets)
		}
		b, err := w.SampleBatch(targets[at:end])
		if err != nil {
			return 0, FaultPoint{}, err
		}
		entries += b.TotalSampled()
		digest = foldDigest(digest, b.Digest())
	}
	secs := time.Since(start).Seconds()
	p := FaultPoint{
		Rate:    rate,
		Entries: entries,
		Seconds: secs,
		IO:      w.IOStats(),
	}
	if secs > 0 {
		p.EntriesPerSec = float64(entries) / secs
	}
	if faultRing != nil {
		p.Injected, _ = uring.Faults(faultRing)
	}
	return digest, p, nil
}

// foldDigest chains per-batch digests (core.Batch.Digest) into one
// stream digest, FNV-1a style so batch order matters.
func foldDigest(acc, d uint64) uint64 {
	const prime = 0x100000001b3
	for i := 0; i < 8; i++ {
		acc = (acc ^ (d >> (8 * i) & 0xff)) * prime
	}
	return acc
}
