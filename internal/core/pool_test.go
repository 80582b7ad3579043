package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ringsampler/internal/gen"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// TestPoolRetiresBrokenWorker runs a one-slot pool whose first worker's
// ring fails mid-batch and then dies during the quarantine drain. The
// failed job must leave that worker Broken and retired, with its
// counters — on Linux its job's CPU too, short as the job is — kept in
// Stats; the next job must run on a replacement under a fresh id and
// sample exactly what a clean worker samples; and the closed pool's
// totals must equal the sum of its slots and still hold the retired
// worker's.
func TestPoolRetiresBrokenWorker(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	var mu sync.Mutex
	var ids []int
	cfg.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		mu.Lock()
		ids = append(ids, workerID)
		mu.Unlock()
		if workerID == 0 {
			return &dribbleRing{inner: r, failAt: 3, dieAfterFail: true}, nil
		}
		return r, nil
	}
	s, err := New(ds, cfg, uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make(chan Job)
	p := s.NewPool(1, jobs)
	targets := testTargets(ds, 64)
	opts := BatchOpts{Seed: 11}
	submit := func() (*Batch, error) {
		var b *Batch
		errc := make(chan error, 1)
		jobs <- Job{
			Run: func(w *Worker) (err error) {
				b, err = w.SampleBatchOpts(targets, opts)
				return err
			},
			Done: func(err error) { errc <- err },
		}
		return b, <-errc
	}

	if _, err := submit(); err == nil {
		t.Fatal("batch on the failing ring succeeded")
	}
	if got := p.Retired(); got != 1 {
		t.Fatalf("Retired() = %d after the failed job, want 1", got)
	}
	broken := p.Stats()
	if broken.Reads == 0 {
		t.Fatal("the retired worker's reads are missing from Stats")
	}
	if runtime.GOOS == "linux" && broken.UserCPUNanos+broken.SysCPUNanos == 0 {
		t.Fatal("the retired worker's CPU is missing from Stats")
	}

	got, err := submit()
	if err != nil {
		t.Fatalf("job on the replacement worker: %v", err)
	}
	clean, err := New(ds, DefaultConfig(), uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := clean.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.SampleBatchOpts(targets, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchesEqual(t, got, want, "replacement/clean")
	if st := p.Stats(); st.Reads != broken.Reads+ref.IOStats().Reads {
		t.Fatalf("Stats().Reads = %d, want retired %d + replacement %d", st.Reads, broken.Reads, ref.IOStats().Reads)
	}

	close(jobs)
	p.Close()
	total, slots := p.Stats(), p.SlotStats()
	var sum IOStats
	for _, st := range slots {
		sum.Add(st)
	}
	if len(slots) != 1 || sum != total {
		t.Fatalf("closed pool: Stats %+v != sum of %d slots %+v", total, len(slots), sum)
	}
	if total.Reads != broken.Reads+ref.IOStats().Reads {
		t.Fatalf("closing lost counters: Reads %d", total.Reads)
	}
	if total.UserCPUNanos < broken.UserCPUNanos || total.SysCPUNanos < broken.SysCPUNanos {
		t.Fatalf("closing lost the retired worker's CPU: user %d < %d or sys %d < %d ns",
			total.UserCPUNanos, broken.UserCPUNanos, total.SysCPUNanos, broken.SysCPUNanos)
	}
	if !slices.Equal(ids, []int{0, 1}) {
		t.Fatalf("rings built for worker ids %v, want [0 1]: one per worker, the replacement under a fresh id", ids)
	}
}

// TestPoolJobStaysOnOneThread: a slot locks its OS thread for the
// length of each job, so a job that yields and sleeps mid-run — as a
// ring wait does — resumes on the thread it started on.
func TestPoolJobStaysOnOneThread(t *testing.T) {
	if _, ok := gettid(); !ok {
		t.Skip("thread ids come from gettid(2), which only Linux has")
	}
	s, err := New(testDataset(t), DefaultConfig(), uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	jobs := make(chan Job)
	errs := make(chan error, n)
	p := s.NewPool(2, jobs)
	for range n {
		jobs <- Job{
			Run: func(*Worker) error {
				before, _ := gettid()
				runtime.Gosched()
				time.Sleep(20 * time.Microsecond)
				if after, _ := gettid(); after != before {
					return fmt.Errorf("job started on thread %d and ended on %d", before, after)
				}
				return nil
			},
			Done: func(err error) { errs <- err },
		}
	}
	close(jobs)
	p.Close()
	for range n {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolChargesCPUPerJob: a worker's CPU counters sum its jobs'
// thread CPU only, so slots whose jobs channel closes before any job
// report none — not their workers' construction, not their idle wait.
// Construction sleeps once, so a clock that covered it would show its
// CPU (Linux brings a thread's CPU time up to date when it blocks).
func TestPoolChargesCPUPerJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WrapRing = func(r uring.Ring, _ int) (uring.Ring, error) {
		time.Sleep(time.Millisecond)
		return r, nil
	}
	s, err := New(testDataset(t), cfg, uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make(chan Job)
	p := s.NewPool(2, jobs)
	close(jobs)
	p.Close()
	for i, st := range p.SlotStats() {
		if cpu := st.UserCPUNanos + st.SysCPUNanos; cpu != 0 {
			t.Fatalf("slot %d ran no job yet was charged %d ns of CPU", i, cpu)
		}
	}
}

// BenchmarkPoolHandoff times the pool's hand-off alone: empty jobs fed
// through 1- and 2-slot pools the way the epoch runner feeds batches
// (one feeder on an unbuffered channel, each Done parking its result in
// a channel with a slot per pool slot), so ns/job is what waking a
// slot, locking its thread for the job and collecting its result costs
// a batch.
func BenchmarkPoolHandoff(b *testing.B) {
	dir := b.TempDir()
	if _, err := gen.Generate(dir, "handoff", "rmat", 2_000, 30_000, 11); err != nil {
		b.Fatal(err)
	}
	ds, err := storage.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	s, err := New(ds, DefaultConfig(), uring.BackendSim)
	if err != nil {
		b.Fatal(err)
	}
	for _, slots := range []int{1, 2} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			jobs := make(chan Job)
			done := make(chan error, slots)
			p := s.NewPool(slots, jobs)
			job := Job{Run: func(*Worker) error { return nil }, Done: func(err error) { done <- err }}
			b.ResetTimer()
			go func() {
				for range b.N {
					jobs <- job
				}
				close(jobs)
			}()
			for range b.N {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/job")
			p.Close()
		})
	}
}
