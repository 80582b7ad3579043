package core

import (
	"testing"

	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// Fault-rate sweep: the same fixed multi-batch workload on the
// checked-in benchmark graph, run fault-free and then once per
// injected fault rate. All sampling randomness is fixed, so every rate
// must fold to the fault-free digest; a differing point is a
// correctness bug, not noise. Workers run with the engine's one retry
// bound, uring.DefaultRetries.

// sweepDataset is the checked-in benchmark graph (cmd/benchprep).
const sweepDataset = "../../benchdata/bench/ogbn-papers-div20000"

// sweepPoint is one rate of the sweep.
type sweepPoint struct {
	rate     float64
	digest   uint64
	entries  int64
	io       IOStats
	injected uring.FaultStats
}

// sweepPlanAt scales one rate into a full plan: transient errnos and
// short reads at the rate, submission rejections at half of it and
// completion delays alongside.
func sweepPlanAt(rate float64, seed uint64) uring.FaultPlan {
	return uring.FaultPlan{
		Seed:          seed,
		TransientRate: rate,
		ShortReadRate: rate,
		RejectRate:    rate / 2,
		DelayRate:     rate,
	}
}

// sweepRun samples targets targets in batches of batchSize on one
// worker, with faults injected at rate (none at 0), and folds the
// per-batch digests in batch order.
func sweepRun(t *testing.T, ds *storage.Dataset, backend uring.Backend, targets, batchSize int, rate float64) sweepPoint {
	t.Helper()
	const seed = 7
	cfg := DefaultConfig()
	cfg.BatchSize = batchSize
	var faultRing uring.Ring
	if rate > 0 {
		cfg.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
			fr, err := uring.NewFault(r, sweepPlanAt(rate, sample.Mix(seed, uint64(workerID))))
			faultRing = fr
			return fr, err
		}
	}
	s, err := New(ds, cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	rng := sample.NewRNG(sample.Mix(seed, 0xfa))
	all := make([]uint32, targets)
	for i := range all {
		all[i] = rng.Uint32n(uint32(ds.NumNodes()))
	}
	p := sweepPoint{rate: rate}
	for at := 0; at < len(all); at += batchSize {
		b, err := w.SampleBatchOpts(all[at:min(at+batchSize, len(all))], BatchOpts{Seed: sample.Mix(seed, uint64(at/batchSize))})
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		p.entries += b.TotalSampled()
		d := b.Digest()
		for i := range 8 {
			p.digest = (p.digest ^ (d >> (8 * i) & 0xff)) * 0x100000001b3
		}
	}
	p.io = w.IOStats()
	if faultRing != nil {
		p.injected, _ = uring.Faults(faultRing)
	}
	return p
}

// faultSweep runs the fault-free reference and then each rate, and
// checks every point against it.
func faultSweep(t *testing.T, backend uring.Backend, targets, batchSize int, rates []float64) {
	t.Helper()
	ds, err := storage.Open(sweepDataset)
	if err != nil {
		t.Fatalf("checked-in benchdata: %v", err)
	}
	defer ds.Close()
	ref := sweepRun(t, ds, backend, targets, batchSize, 0)
	if ref.entries == 0 {
		t.Fatal("fault-free reference sampled nothing")
	}
	for _, rate := range rates {
		p := sweepRun(t, ds, backend, targets, batchSize, rate)
		t.Logf("rate %.2f: %d entries, io %+v, injected %+v", rate, p.entries, p.io, p.injected)
		if p.digest != ref.digest || p.entries != ref.entries {
			t.Fatalf("rate %v corrupted the sampled output", rate)
		}
		if p.injected.Total() == 0 {
			t.Fatalf("rate %v injected nothing", rate)
		}
		if p.io.Retries == 0 {
			t.Fatalf("rate %v: faults injected but no retries recorded", rate)
		}
	}
}

// TestFaultSweepQuick: one low fault rate on the pool backend.
func TestFaultSweepQuick(t *testing.T) {
	faultSweep(t, uring.BackendPool, 128, 64, []float64{0.02})
}

// TestFaultSweepFull: rates up to 5 % per request on every backend
// the host runs. Higher rates are past what the bound absorbs on a run
// of this size: at 20 % the pool backend, whose completion order
// varies, has some read fault nine times in a row in most runs, and
// the worker then fails with the *IOError that TestRetryExhaustionTransient
// pins.
func TestFaultSweepFull(t *testing.T) {
	backends := []uring.Backend{uring.BackendPool, uring.BackendSim}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	for _, be := range backends {
		t.Run(string(be), func(t *testing.T) {
			faultSweep(t, be, 512, 128, []float64{0.01, 0.02, 0.05})
		})
	}
}
