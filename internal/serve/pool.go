package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"ringsampler/internal/core"
)

// errNoWorker surfaces when a pool slot cannot obtain a ring-backed
// worker (creation failed and the lazy retry failed too). The request
// fails; the slot stays alive and retries on the next job.
var errNoWorker = errors.New("serve: no worker available in this pool slot")

// job is one unit of pool work: one Core.BatchSize chunk of a sample
// request, or one shard-protocol call. run does the work on the slot's
// worker and leaves its result where the handler will read it; the
// slot then reports run's error — or why run never ran — to req.
type job struct {
	ctx context.Context
	enq time.Time
	run func(w *core.Worker) error
	req *request
}

// request tracks the fan-out/fan-in of one API call across its jobs:
// the first error wins, and done closes when the last job reports in.
// The first error also cancels the context the request's jobs carry,
// so sibling jobs still queued behind it are skipped (dead-context
// check) instead of burning worker time on a response that is already
// doomed.
type request struct {
	cancel context.CancelFunc
	// batches[i] is chunk i's result, written by whoever ran the chunk
	// before it reports in; read only after done closes.
	batches []*core.Batch

	mu     sync.Mutex
	err    error
	remain int
	done   chan struct{}
}

func newRequest(jobs int, cancel context.CancelFunc) *request {
	return &request{
		cancel:  cancel,
		batches: make([]*core.Batch, jobs),
		remain:  jobs,
		done:    make(chan struct{}),
	}
}

func (r *request) jobDone(err error) {
	r.mu.Lock()
	first := err != nil && r.err == nil
	if first {
		r.err = err
	}
	r.remain--
	last := r.remain == 0
	r.mu.Unlock()
	if first {
		// First error wins and is already recorded, so canceling the
		// siblings here can never replace it with context.Canceled.
		r.cancel()
	}
	if last {
		close(r.done)
	}
}

// pool is a fixed set of OS-thread-pinned core workers reused across
// requests, never one per connection. Each slot takes jobs straight
// off the server's bounded admission queue and runs them on its
// private worker until the queue is closed and empty. A worker whose
// ring cannot be proven empty after a failed job (core.ErrWorkerBroken
// semantics) is retired — its IOStats merged into the aggregate, never
// dropped — and replaced with a fresh worker on a fresh ring.
type pool struct {
	s    *core.Sampler
	met  *metrics
	jobs <-chan *job
	wg   sync.WaitGroup

	mu      sync.Mutex
	live    []core.IOStats // latest per-slot snapshot
	retired core.IOStats   // merged stats of every retired/closed worker
	nextID  int
}

func newPool(s *core.Sampler, met *metrics, workers int, jobs <-chan *job) *pool {
	p := &pool{
		s:      s,
		met:    met,
		jobs:   jobs,
		live:   make([]core.IOStats, workers),
		nextID: workers,
	}
	p.wg.Add(workers)
	for slot := 0; slot < workers; slot++ {
		go p.run(slot)
	}
	return p
}

// Stats returns the pool's merged ring-level I/O counters: every live
// worker's latest snapshot plus everything retired workers accumulated
// before they were replaced (including the StaleDrained counts from
// the quarantines that broke them).
func (p *pool) Stats() core.IOStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.retired
	for _, ws := range p.live {
		s.Add(ws)
	}
	return s
}

// wait blocks until every slot has exited (the jobs channel must be
// closed first) and final worker stats are merged.
func (p *pool) wait() { p.wg.Wait() }

// newWorker allocates a worker with a pool-unique id. The id only
// names the worker in stats — sampling output never depends on it
// because every job reseeds the RNG explicitly.
func (p *pool) newWorker() (*core.Worker, error) {
	p.mu.Lock()
	id := p.nextID
	p.nextID++
	p.mu.Unlock()
	return p.s.NewWorker(id)
}

// publish stores a live worker's stats so /metrics stays current.
func (p *pool) publish(slot int, st core.IOStats) {
	p.mu.Lock()
	p.live[slot] = st
	p.mu.Unlock()
}

// retire merges a finished worker's counters into the aggregate —
// retirement never drops them — and closes it.
func (p *pool) retire(slot int, w *core.Worker, st core.IOStats) {
	p.mu.Lock()
	p.retired.Add(st)
	p.live[slot] = core.IOStats{}
	p.mu.Unlock()
	w.Close()
}

// run is one pool slot: pin the OS thread (rings and the Go scheduler
// interact badly when a ring migrates threads), create a private
// worker, and serve jobs until the jobs channel closes and drains.
func (p *pool) run(slot int) {
	defer p.wg.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// The slot thread's CPU is attributed to whichever worker it is
	// running: the clock restarts with each replacement.
	cpu := core.StartThreadClock()
	w, _ := p.s.NewWorker(slot)
	for j := range p.jobs {
		p.met.queueDepth.Add(-1)
		if err := j.ctx.Err(); err != nil {
			// The request already died (deadline, client gone, forced
			// drain, or a failed sibling job) — don't burn device time on
			// it.
			p.met.canceledJobs.Add(1)
			j.req.jobDone(err)
			continue
		}
		if w == nil {
			w, _ = p.newWorker()
		}
		if w == nil {
			j.req.jobDone(errNoWorker)
			continue
		}
		p.met.queueWait.Observe(time.Since(j.enq).Nanoseconds())
		t0 := time.Now()
		err := j.run(w)
		p.met.sampleLat.Observe(time.Since(t0).Nanoseconds())
		if err != nil && w.Broken() {
			// The §4 quarantine path: a ring that could not be proven
			// empty is never reused — retire the worker, keep its stats,
			// lease a fresh one (nil when creation fails; the slot then
			// retries lazily on the next job).
			p.retire(slot, w, cpu.Stamp(w.IOStats()))
			p.met.workersRetired.Add(1)
			cpu = core.StartThreadClock()
			w, _ = p.newWorker()
		}
		if w != nil {
			p.publish(slot, cpu.Stamp(w.IOStats()))
		}
		// Report last, so the job's counters are in Stats (and /metrics)
		// by the time its response is written.
		j.req.jobDone(err)
	}
	if w != nil {
		p.retire(slot, w, cpu.Stamp(w.IOStats()))
	}
}
