package core

import (
	"errors"
	"io"
	"strings"
	"syscall"
	"testing"

	"ringsampler/internal/uring"
)

// Cross-backend conformance: one fixed sampling plan (dataset, config,
// seed, targets) must yield byte-identical sampled neighborhoods
// through every ring backend — sim, pool, fault-wrapped variants of
// both, and real io_uring when the environment supports it. This
// executes the "all backends implement the same ring contract"
// invariant end to end: the sample set is a property of (seed, worker
// id) alone, and injected faults must be absorbed by the retry path
// without corrupting a single byte.

// faultWrap returns a WrapRing hook injecting the given plan, with the
// seed varied per worker so workers see independent fault streams.
func faultWrap(plan uring.FaultPlan) func(r uring.Ring, workerID int) (uring.Ring, error) {
	return func(r uring.Ring, workerID int) (uring.Ring, error) {
		p := plan
		p.Seed = plan.Seed + uint64(workerID)
		return uring.NewFault(r, p)
	}
}

// transientErrno reports whether e is one of the errnos the driver
// retries.
func transientErrno(e syscall.Errno) bool {
	return e == syscall.EINTR || e == syscall.EAGAIN
}

func TestCrossBackendConformance(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.RingSize = 32 // small ring so every backend wraps and backpressures
	targets := testTargets(ds, 128)
	ref := sampleOnce(t, ds, cfg, uring.BackendSim, targets)
	if ref.TotalSampled() == 0 {
		t.Fatal("reference plan sampled nothing")
	}

	// The injected transient-error rate is ≥1% by design (acceptance
	// bar); the nasty plan goes far beyond it.
	mild := uring.FaultPlan{Seed: 100, ShortReadRate: 0.03, TransientRate: 0.02, RejectRate: 0.05, DelayRate: 0.1}
	nasty := uring.FaultPlan{Seed: 200, ShortReadRate: 0.2, TransientRate: 0.1, RejectRate: 0.15, DelayRate: 0.25, MaxDelay: 5}

	type confCase struct {
		name    string
		backend uring.Backend
		wrap    func(uring.Ring, int) (uring.Ring, error)
		cache   int64
	}
	cases := []confCase{
		{"pool", uring.BackendPool, nil, 0},
		{"fault-sim-mild", uring.BackendSim, faultWrap(mild), 0},
		{"fault-sim-nasty", uring.BackendSim, faultWrap(nasty), 0},
		{"fault-pool-mild", uring.BackendPool, faultWrap(mild), 0},
		{"fault-pool-nasty", uring.BackendPool, faultWrap(nasty), 0},
		// Hot-neighbor cache variants: hits bypass the ring entirely,
		// misses take the (possibly fault-injected) read path — the
		// digest must not move either way.
		{"cache-pool", uring.BackendPool, nil, 48 << 10},
		{"cache-fault-sim-nasty", uring.BackendSim, faultWrap(nasty), 48 << 10},
		{"cache-fault-pool-mild", uring.BackendPool, faultWrap(mild), 48 << 10},
	}
	if uring.Probe().Ring {
		cases = append(cases,
			confCase{"io_uring", uring.BackendIOURing, nil, 0},
			confCase{"fault-io_uring", uring.BackendIOURing, faultWrap(mild), 0},
			confCase{"cache-fault-io_uring", uring.BackendIOURing, faultWrap(mild), 48 << 10},
		)
	} else {
		t.Log("io_uring unavailable; real backend skipped")
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cc := cfg
			cc.WrapRing = c.wrap
			cc.CacheBudgetBytes = c.cache
			s, err := New(ds, cc, c.backend)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.NewWorker(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			got, err := w.SampleBatchOpts(targets, BatchOpts{Seed: cc.Seed})
			if err != nil {
				t.Fatal(err)
			}
			assertBatchesEqual(t, ref, got, c.name)
			if c.cache > 0 && w.IOStats().CacheHits == 0 {
				t.Fatal("cache-enabled run recorded no hits — budget too small to prove anything")
			}
			if c.wrap != nil {
				st := w.IOStats()
				fs, _ := uring.Faults(w.edge.Ring)
				t.Logf("io stats: %+v; injected: %+v", st, fs)
				if fs.Total() == 0 {
					t.Fatal("fault-wrapped run injected nothing — plan too weak to prove anything")
				}
				if (fs.ShortReads > 0 || fs.Transient > 0) && st.Retries == 0 {
					t.Fatal("faults injected but worker recorded no retries")
				}
			}
		})
	}
}

// TestRetryExhaustionTransient: a ring that only ever returns -EINTR/
// -EAGAIN must burn exactly uring.DefaultRetries retries and surface a
// structured *IOError wrapping the transient errno.
func TestRetryExhaustionTransient(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.WrapRing = faultWrap(uring.FaultPlan{Seed: 5, TransientRate: 1})
	s, err := New(ds, cfg, uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, err = w.SampleBatchOpts(testTargets(ds, 8), BatchOpts{Seed: cfg.Seed})
	var ioe *IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("err = %v (%T), want *IOError", err, err)
	}
	if ioe.Attempts != uring.DefaultRetries {
		t.Fatalf("Attempts = %d, want %d", ioe.Attempts, uring.DefaultRetries)
	}
	if !transientErrno(ioe.Errno) {
		t.Fatalf("Errno = %v, want EINTR/EAGAIN", ioe.Errno)
	}
	if !errors.Is(err, ioe.Errno) {
		t.Fatal("IOError does not unwrap to its errno")
	}
}

// TestHardErrorFailsFast: -EIO is not retryable — the worker must fail
// on the first completion with the errno preserved, not burn retries.
func TestHardErrorFailsFast(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.WrapRing = faultWrap(uring.FaultPlan{Seed: 5, HardErrRate: 1})
	s, err := New(ds, cfg, uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, err = w.SampleBatchOpts(testTargets(ds, 8), BatchOpts{Seed: cfg.Seed})
	var ioe *IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("err = %v (%T), want *IOError", err, err)
	}
	if ioe.Errno != syscall.EIO || ioe.Attempts != 0 {
		t.Fatalf("IOError = %+v, want first-completion EIO", ioe)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatal("IOError does not unwrap to EIO")
	}
}

// TestIOErrorShortReadUnwrap pins the short-read-exhaustion flavor of
// the structured error.
func TestIOErrorShortReadUnwrap(t *testing.T) {
	e := &IOError{Offset: 128, Bytes: 12, Attempts: 8}
	if !errors.Is(e, io.ErrUnexpectedEOF) {
		t.Fatal("short-read IOError does not unwrap to io.ErrUnexpectedEOF")
	}
	if e.Error() == "" {
		t.Fatal("empty error string")
	}
}

// truncRing simulates a file truncated under the reader: every
// successful completion is rewritten to 0 bytes, exactly what pread(2)
// returns at or past EOF. The retry budget must exhaust with the
// short-read context preserved.
type truncRing struct{ uring.Ring }

func (r truncRing) Wait(min int) ([]uring.CQE, error) {
	cqes, err := r.Ring.Wait(min)
	for i := range cqes {
		if cqes[i].Res > 0 {
			cqes[i].Res = 0
		}
	}
	return cqes, err
}

// TestRetryExhaustionShortRead: retry budgets exhausted by short reads
// alone must surface an *IOError that says so — ShortRead set, zero
// Errno, and a message naming the short-read exhaustion — instead of
// the ambiguous zero-Errno error it used to produce.
func TestRetryExhaustionShortRead(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		return truncRing{r}, nil
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
	_, err = w.SampleBatchOpts(testTargets(ds, 8), BatchOpts{Seed: cfg.Seed})
	var ioe *IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("err = %v (%T), want *IOError", err, err)
	}
	if !ioe.ShortRead {
		t.Fatalf("IOError.ShortRead = false, want true: %+v", ioe)
	}
	if ioe.Errno != 0 {
		t.Fatalf("IOError.Errno = %v, want 0 for short-read exhaustion", ioe.Errno)
	}
	if ioe.Attempts != uring.DefaultRetries {
		t.Fatalf("Attempts = %d, want %d", ioe.Attempts, uring.DefaultRetries)
	}
	if !strings.Contains(err.Error(), "retry budget exhausted by short reads") {
		t.Fatalf("error message lost the short-read context: %q", err.Error())
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatal("short-read IOError does not unwrap to io.ErrUnexpectedEOF")
	}
}

// refuseRing breaks the never-refuse-while-idle contract outright:
// PrepRead always returns false.
type refuseRing struct{ uring.Ring }

func (refuseRing) PrepRead(id uint64, off int64, buf []byte) bool { return false }

// limitRing accepts only the first n PrepReads, then refuses forever —
// combined with an all-transient fault plan it strands the retry queue
// with nothing staged and nothing in flight.
type limitRing struct {
	uring.Ring
	n int
}

func (r *limitRing) PrepRead(id uint64, off int64, buf []byte) bool {
	if r.n <= 0 {
		return false
	}
	if !r.Ring.PrepRead(id, off, buf) {
		return false
	}
	r.n--
	return true
}

// TestRingStallGuard: a contract-breaking ring that refuses to stage
// while idle must surface ErrRingStalled instead of spinning forever —
// both on the fresh-request path and with requests stranded in the
// retry queue.
func TestRingStallGuard(t *testing.T) {
	ds := testDataset(t)
	t.Run("refuses-fresh", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
			return refuseRing{r}, nil
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
		_, err = w.SampleBatchOpts(testTargets(ds, 8), BatchOpts{Seed: cfg.Seed})
		if !errors.Is(err, ErrRingStalled) {
			t.Fatalf("err = %v, want ErrRingStalled", err)
		}
	})
	t.Run("strands-retries", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
			fr, err := uring.NewFault(r, uring.FaultPlan{Seed: 5, TransientRate: 1})
			if err != nil {
				return nil, err
			}
			return &limitRing{Ring: fr, n: 4}, nil
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
		_, err = w.SampleBatchOpts(testTargets(ds, 8), BatchOpts{Seed: cfg.Seed})
		if !errors.Is(err, ErrRingStalled) {
			t.Fatalf("err = %v, want ErrRingStalled", err)
		}
	})
}
