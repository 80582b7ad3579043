package serve

import (
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

// group is one micro-batch: the jobs a dispatch window coalesced,
// executed back to back on a single leased worker.
type group []*job

// pool is a fixed set of OS-thread-pinned core workers reused across
// requests. Workers are leased per micro-batch rather than owned per
// epoch: a slot picks up a group, runs every job on its private worker,
// and goes back for more. A worker whose ring cannot be proven empty
// after a failed batch (core.ErrWorkerBroken semantics) is retired —
// its IOStats merged into the aggregate, never dropped — and replaced
// with a fresh worker on a fresh ring.
type pool struct {
	s      *core.Sampler
	met    *metrics
	groups chan group
	wg     sync.WaitGroup

	mu      sync.Mutex
	live    []core.IOStats // latest per-slot snapshot
	retired core.IOStats   // merged stats of every retired/closed worker
	nextID  int
}

func newPool(s *core.Sampler, met *metrics, workers int) *pool {
	p := &pool{
		s:      s,
		met:    met,
		groups: make(chan group),
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

// wait blocks until every slot has exited (the groups channel must be
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

// publish stores a live worker's stats so /metrics stays current
// without per-job locking (one lock per group).
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
// worker, and serve micro-batches until the groups channel closes.
func (p *pool) run(slot int) {
	defer p.wg.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// The slot thread's CPU is attributed to whichever worker it is
	// running: the clock restarts with each replacement.
	cpu := core.StartThreadClock()
	w, _ := p.s.NewWorker(slot)
	for g := range p.groups {
		for _, j := range g {
			p.met.queueDepth.Add(-1)
			if j.ctx.Err() != nil {
				// The request already died (deadline, client gone, or a
				// rejected sibling chunk) — don't burn device time on it.
				p.met.canceledJobs.Add(1)
				j.finish(nil, j.ctx.Err())
				continue
			}
			if w == nil {
				w, _ = p.newWorker()
			}
			if w == nil {
				j.finish(nil, errNoWorker)
				continue
			}
			p.met.queueWait.Observe(time.Since(j.enq).Nanoseconds())
			t0 := time.Now()
			b, err := w.SampleBatchOpts(j.targets, core.BatchOpts{Fanouts: j.fanouts, Seed: j.seed, Features: j.features, Strategy: j.strategy})
			p.met.sampleLat.Observe(time.Since(t0).Nanoseconds())
			j.finish(b, err)
			if err != nil && w.Broken() {
				// PR 4's quarantine path: a ring that could not be proven
				// empty is never reused — retire the worker, keep its
				// stats, lease a fresh one (nil when creation fails; the
				// slot then retries lazily on the next job).
				p.retire(slot, w, cpu.Stamp(w.IOStats()))
				p.met.workersRetired.Add(1)
				cpu = core.StartThreadClock()
				w, _ = p.newWorker()
			}
		}
		if w != nil {
			p.publish(slot, cpu.Stamp(w.IOStats()))
		}
	}
	if w != nil {
		p.retire(slot, w, cpu.Stamp(w.IOStats()))
	}
}
