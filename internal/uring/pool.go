package uring

import (
	"os"
	"sync"
	"sync/atomic"
)

// poolWorkers is the number of pread goroutines per pool ring. Each
// ring is owned by one sampler worker, so this is per-worker I/O
// parallelism — the portable stand-in for io_uring's in-kernel async.
const poolWorkers = 16

// poolRing implements Ring with a goroutine worker pool issuing
// pread(2) (via ReadAt). Channel capacities cover the maximum
// in-flight count, so workers never block on the completion side and
// Submit never blocks on the work side.
type poolRing struct {
	f       *os.File
	entries int
	cqCap   int

	staged   []poolReq
	work     chan poolReq
	results  chan CQE
	inflight int
	cq       []CQE

	preads atomic.Int64

	closeOnce sync.Once
	wg        sync.WaitGroup
}

type poolReq struct {
	id  uint64
	off int64
	buf []byte
}

func newPool(f *os.File, o Options) *poolRing {
	r := &poolRing{
		f:       f,
		entries: o.Entries,
		cqCap:   2 * o.Entries, // matches io_uring's default CQ = 2x SQ
	}
	r.work = make(chan poolReq, r.cqCap)
	r.results = make(chan CQE, r.cqCap)
	workers := poolWorkers
	if workers > r.entries {
		workers = r.entries
	}
	r.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go r.worker()
	}
	return r
}

func (r *poolRing) worker() {
	defer r.wg.Done()
	for rq := range r.work {
		n, err := r.f.ReadAt(rq.buf, rq.off)
		r.preads.Add(1)
		r.results <- CQE{ID: rq.id, Res: errnoResult(n, err)}
	}
}

func (r *poolRing) PrepRead(id uint64, off int64, buf []byte) bool {
	if len(r.staged) >= r.entries || r.inflight+len(r.staged) >= r.cqCap {
		return false
	}
	r.staged = append(r.staged, poolReq{id: id, off: off, buf: buf})
	return true
}

func (r *poolRing) Submit() (int, error) {
	n := len(r.staged)
	for _, rq := range r.staged {
		r.work <- rq
	}
	r.inflight += n
	r.staged = r.staged[:0]
	return n, nil
}

func (r *poolRing) Wait(min int) ([]CQE, error) {
	if min > r.inflight {
		min = r.inflight
	}
	r.cq = r.cq[:0]
	for len(r.cq) < min {
		c := <-r.results
		r.cq = append(r.cq, c)
		r.inflight--
	}
	for {
		select {
		case c := <-r.results:
			r.cq = append(r.cq, c)
			r.inflight--
		default:
			return r.cq, nil
		}
	}
}

func (r *poolRing) Entries() int { return r.entries }

// Syscalls reports one submission-side syscall per pread issued — the
// pool's honest kernel-crossing count (completions are user-space).
func (r *poolRing) Syscalls() Syscalls {
	return Syscalls{Submits: r.preads.Load()}
}

func (r *poolRing) Close() error {
	r.closeOnce.Do(func() {
		// Drain anything in flight so workers aren't writing into
		// buffers the caller is about to recycle.
		for r.inflight > 0 {
			<-r.results
			r.inflight--
		}
		close(r.work)
		r.wg.Wait()
	})
	return nil
}
