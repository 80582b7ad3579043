package core

import (
	"errors"
	"syscall"
	"testing"

	"ringsampler/internal/sample"
	"ringsampler/internal/uring"
)

// Regression tests for the stale-completion hazard: a batch that fails
// mid-flight used to return with requests still outstanding in the
// ring, so a reused worker's next Wait harvested stale CQEs whose IDs
// were routed into the NEW batch's request table — silent buffer and
// accounting corruption (or an index panic when an old ID exceeded the
// new table). The read driver now drains in-flight requests before
// surfacing the error, and SampleBatchOpts refuses a worker whose ring
// could not be proven empty.

// dribbleRing wraps a ring, delivers completions at most `per` per
// Wait call (holding the rest back), and poisons the failAt-th
// delivered completion with -EIO. When the poisoned completion is
// delivered there are still held + undelivered completions owed — the
// exact mid-flight failure the quarantine path exists for. With
// dieAfterFail set, every Wait after the poisoned one errors, modeling
// a ring that dies outright.
type dribbleRing struct {
	inner        uring.Ring
	queued       []uring.CQE
	delivered    int
	failAt       int
	per          int
	dieAfterFail bool
}

var errRingDead = errors.New("dribbleRing: ring died")

func (r *dribbleRing) PrepRead(id uint64, off int64, buf []byte) bool {
	return r.inner.PrepRead(id, off, buf)
}
func (r *dribbleRing) Submit() (int, error) { return r.inner.Submit() }
func (r *dribbleRing) Entries() int         { return r.inner.Entries() }
func (r *dribbleRing) Close() error         { return r.inner.Close() }

func (r *dribbleRing) Wait(min int) ([]uring.CQE, error) {
	if r.dieAfterFail && r.delivered >= r.failAt {
		return nil, errRingDead
	}
	need := min
	if need < 1 {
		need = 1
	}
	for len(r.queued) < need {
		cqes, err := r.inner.Wait(1)
		if err != nil {
			return nil, err
		}
		if len(cqes) == 0 {
			break
		}
		r.queued = append(r.queued, cqes...)
	}
	n := need
	if r.per > 0 && n < r.per {
		n = r.per
	}
	if n > len(r.queued) {
		n = len(r.queued)
	}
	out := append([]uring.CQE(nil), r.queued[:n]...)
	r.queued = r.queued[n:]
	for i := range out {
		r.delivered++
		if r.delivered == r.failAt {
			out[i].Res = -int32(syscall.EIO)
		}
	}
	return out, nil
}

// TestWorkerReuseAfterFailedBatch: a batch fails on its 3rd completion
// with the ring still owing every later completion; the worker must
// drain them (StaleDrained > 0) and the NEXT batch on the same worker
// must be byte-identical to the same batch on a fresh worker.
func TestWorkerReuseAfterFailedBatch(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Seed = 13
	cfg.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		return &dribbleRing{inner: r, failAt: 3}, nil
	}
	s, err := New(ds, cfg, uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	t1 := testTargets(ds, 64)
	_, err = w.SampleBatchOpts(t1, BatchOpts{Seed: sample.Mix(cfg.Seed, 1)})
	var ioe *IOError
	if !errors.As(err, &ioe) || ioe.Errno != syscall.EIO {
		t.Fatalf("failed batch: err = %v, want *IOError with EIO", err)
	}
	if w.IOStats().StaleDrained == 0 {
		t.Fatal("failure left nothing in flight — the scenario does not exercise the hazard")
	}

	// Reuse after quarantine: the second batch must match a fresh
	// worker sampling the same (targets, seed) fault-free.
	t2 := testTargets(ds, 48)
	got, err := w.SampleBatchOpts(t2, BatchOpts{Seed: sample.Mix(cfg.Seed, 2)})
	if err != nil {
		t.Fatalf("reused worker: %v", err)
	}
	clean := cfg
	clean.WrapRing = nil
	sc, err := New(ds, clean, uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := sc.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	want, err := wf.SampleBatchOpts(t2, BatchOpts{Seed: sample.Mix(cfg.Seed, 2)})
	if err != nil {
		t.Fatal(err)
	}
	assertBatchesEqual(t, want, got, "reused-after-failure/fresh")
	if got.Digest() != want.Digest() {
		t.Fatalf("reused worker digest %#x != fresh worker digest %#x", got.Digest(), want.Digest())
	}
}

// TestWorkerReuseUnderFaultRing is the same hazard driven through
// uring.NewFault: a seeded fault plan whose -EIO fails a batch while
// delayed completions are still owed. The reused worker's next batch
// (and a fresh worker's run of the same batch, through its own fault
// ring) must both land on the fault-free digest. Seeds are searched
// deterministically until the -EIO lands in batch 1 and spares batch 2
// on both workers, so the test does not depend on one magic seed
// staying aligned with the engine's RNG consumption. Fanouts are kept
// small so a batch issues a few hundred requests, not tens of
// thousands — at the default fanout no hard-error rate both fails
// batch 1 and plausibly spares batch 2.
func TestWorkerReuseUnderFaultRing(t *testing.T) {
	ds := testDataset(t)
	t1 := testTargets(ds, 24)
	t2 := testTargets(ds, 16)
	seed1, seed2 := sample.Mix(13, 1), sample.Mix(13, 2)

	// Fault-free reference digest of batch 2.
	cleanCfg := DefaultConfig()
	cleanCfg.Seed = 13
	cleanCfg.Fanouts = []int{4, 3}
	sc, err := New(ds, cleanCfg, uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := sc.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	ref, err := wc.SampleBatchOpts(t2, BatchOpts{Seed: seed2})
	if err != nil {
		t.Fatal(err)
	}

	for fs := uint64(1); fs <= 200; fs++ {
		plan := uring.FaultPlan{
			Seed:          fs,
			HardErrRate:   0.002,
			ShortReadRate: 0.05,
			TransientRate: 0.05,
			DelayRate:     0.5,
			MaxDelay:      6,
		}
		cfg := cleanCfg
		cfg.WrapRing = faultWrap(plan)
		s, err := New(ds, cfg, uring.BackendSim)
		if err != nil {
			t.Fatal(err)
		}
		w, err := s.NewWorker(0)
		if err != nil {
			t.Fatal(err)
		}
		_, err1 := w.SampleBatchOpts(t1, BatchOpts{Seed: seed1})
		var ioe *IOError
		if !errors.As(err1, &ioe) || ioe.Errno != syscall.EIO || w.IOStats().StaleDrained == 0 {
			w.Close()
			continue // batch 1 didn't fail mid-flight under this seed
		}
		got, err2 := w.SampleBatchOpts(t2, BatchOpts{Seed: seed2})
		if err2 != nil {
			w.Close()
			continue // injected -EIO hit batch 2 as well; try another seed
		}
		if got.Digest() != ref.Digest() {
			t.Fatalf("fault seed %d: reused worker digest %#x != fault-free digest %#x",
				fs, got.Digest(), ref.Digest())
		}
		w.Close()

		// A fresh worker through its own fault ring must agree too.
		wf, err := s.NewWorker(0)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := wf.SampleBatchOpts(t2, BatchOpts{Seed: seed2})
		wf.Close()
		if err != nil {
			continue // fresh worker's ring replay hit -EIO earlier; seed unusable
		}
		if fresh.Digest() != ref.Digest() {
			t.Fatalf("fault seed %d: fresh worker digest %#x != fault-free digest %#x",
				fs, fresh.Digest(), ref.Digest())
		}
		return
	}
	t.Fatal("no fault seed in [1,200] produced a mid-flight EIO in batch 1 and a clean batch 2")
}

// TestWorkerBrokenRefusal: when the ring dies during quarantine the
// worker cannot prove its ring empty — it must refuse the next batch
// with ErrWorkerBroken instead of sampling through a poisoned ring.
func TestWorkerBrokenRefusal(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Seed = 13
	cfg.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		return &dribbleRing{inner: r, failAt: 3, dieAfterFail: true}, nil
	}
	s, err := New(ds, cfg, uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.SampleBatchOpts(testTargets(ds, 64), BatchOpts{Seed: cfg.Seed}); err == nil {
		t.Fatal("poisoned batch succeeded")
	}
	_, err = w.SampleBatchOpts(testTargets(ds, 16), BatchOpts{Seed: cfg.Seed})
	if !errors.Is(err, ErrWorkerBroken) {
		t.Fatalf("reuse of undrainable worker: err = %v, want ErrWorkerBroken", err)
	}
	// Refusal is sticky.
	if _, err := w.SampleBatchOpts(testTargets(ds, 8), BatchOpts{Seed: cfg.Seed}); !errors.Is(err, ErrWorkerBroken) {
		t.Fatal("broken worker accepted a batch on the second try")
	}
}
