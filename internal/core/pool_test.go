package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ringsampler/internal/gen"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// TestPoolRetiresBrokenWorker runs a one-slot pool whose first worker's
// ring fails mid-batch and then dies during the quarantine drain. The
// failed job must leave that worker Broken and retired, with its
// counters kept in Stats; the next job must run on a replacement under
// a fresh id and sample exactly what a clean worker samples; and the
// closed pool's totals must equal the sum of its slots.
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
	if runtime.GOOS == "linux" && total.UserCPUNanos+total.SysCPUNanos == 0 {
		t.Fatal("pinned slot recorded no CPU time")
	}
	if !slices.Equal(ids, []int{0, 1}) {
		t.Fatalf("rings built for worker ids %v, want [0 1]: one per worker, the replacement under a fresh id", ids)
	}
}

// BenchmarkPoolHandoff times the pool's hand-off alone: empty jobs fed
// through 1- and 2-slot pools the way the epoch runner feeds batches
// (one feeder on an unbuffered channel, each Done parking its result in
// a channel with a slot per pool slot), so ns/job is what waking a
// pinned slot and collecting its result costs a batch.
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
