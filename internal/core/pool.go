package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrNoWorker is what a pool job reports when its slot has no worker:
// creating one failed, and so did the retry the job itself triggered.
// The slot stays alive and retries on its next job.
var ErrNoWorker = errors.New("core: no worker available in this pool slot")

// Job is one unit of pool work. Run does the work on the slot's worker.
// Done is called once per job on the slot's goroutine after the pool's
// stats include the job, with Run's error — or, when the slot could not
// get a worker and Run never ran, an ErrNoWorker.
type Job struct {
	Run  func(w *Worker) error
	Done func(err error)
}

// Pool is the engine's fixed set of sampler threads (paper Fig 3a):
// each slot is a goroutine that owns one Worker and locks itself to an
// OS thread for the length of each job, so a ring never changes thread
// mid-submit (io_uring's mmap'd SQ/CQ rings and the Go scheduler
// interact badly when it does). A job leaves its rings drained or its
// worker Broken, so between jobs the slot is an ordinary goroutine and
// a hand-off is a channel operation, not the wake of a locked thread.
// Slots run jobs from a channel the caller owns — admission stays the
// caller's policy — until the caller closes it and it drains.
//
// The pool is the one place the worker lifecycle lives. Slot i starts
// worker i and retries lazily on its next job when creation fails. A
// worker a failed job left Broken (ErrWorkerBroken) is retired, and the
// slot starts a fresh one under a pool-unique id on its next job; ids
// only name workers, since every entry point reseeds or restores the
// RNG. A worker's CPU counters are the sum of the thread CPU its jobs
// took, stamped onto its stats after every job; retired workers' stats
// are merged, never dropped.
type Pool struct {
	wg     sync.WaitGroup
	nextID atomic.Int64 // next replacement worker id

	mu      sync.Mutex
	live    []IOStats // per slot: its current worker's stats after its last job
	retired []IOStats // per slot: the merged stats of the workers it retired
	broken  int64     // workers retired because a failed job left them Broken
}

// NewPool starts slots workers taking jobs from jobs. Close it after
// closing jobs.
func (s *Sampler) NewPool(slots int, jobs <-chan Job) *Pool {
	p := &Pool{live: make([]IOStats, slots), retired: make([]IOStats, slots)}
	p.nextID.Store(int64(slots))
	p.wg.Add(slots)
	for slot := range slots {
		go p.run(s, slot, jobs)
	}
	return p
}

// run is one slot: start its worker and serve jobs until the channel
// closes and drains.
func (p *Pool) run(s *Sampler, slot int, jobs <-chan Job) {
	defer p.wg.Done()
	w, werr := s.NewWorker(slot)
	var user, sys int64 // w's CPU: the sum of its jobs' thread CPU
	stats := func() IOStats {
		st := w.IOStats()
		st.UserCPUNanos, st.SysCPUNanos = user, sys
		return st
	}
	for j := range jobs {
		if w == nil {
			w, werr = s.NewWorker(int(p.nextID.Add(1) - 1))
			user, sys = 0, 0
		}
		if w == nil {
			j.Done(fmt.Errorf("%w: %v", ErrNoWorker, werr))
			continue
		}
		runtime.LockOSThread()
		user0, sys0 := threadCPU()
		err := j.Run(w)
		user1, sys1 := threadCPU()
		runtime.UnlockOSThread()
		user, sys = user+user1-user0, sys+sys1-sys0
		st := stats()
		if err != nil && w.Broken() {
			p.retire(slot, w, st, true)
			w = nil
		} else {
			p.mu.Lock()
			p.live[slot] = st
			p.mu.Unlock()
		}
		j.Done(err)
	}
	if w != nil {
		p.retire(slot, w, stats(), false)
	}
}

// retire merges a worker's final stats into its slot's and closes it.
// The rings were only read through, so their Close errors are dropped.
func (p *Pool) retire(slot int, w *Worker, st IOStats, broken bool) {
	w.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retired[slot].Add(st)
	p.live[slot] = IOStats{}
	if broken {
		p.broken++
	}
}

// SlotStats returns each slot's ring-level I/O counters: its current
// worker's as of its last job plus every worker it retired.
func (p *Pool) SlotStats() []IOStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]IOStats, len(p.live))
	for i := range out {
		out[i] = p.retired[i]
		out[i].Add(p.live[i])
	}
	return out
}

// Stats returns the pool's merged ring-level I/O counters, the sum of
// SlotStats.
func (p *Pool) Stats() IOStats {
	var st IOStats
	for _, s := range p.SlotStats() {
		st.Add(s)
	}
	return st
}

// Retired returns how many workers the pool retired because a failed
// job left them Broken.
func (p *Pool) Retired() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.broken
}

// Close waits for every slot to finish — the caller must have closed
// the jobs channel — each retiring the worker it holds.
func (p *Pool) Close() { p.wg.Wait() }
