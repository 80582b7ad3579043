package uring

import "os"

// simRing is the deterministic backend: reads execute synchronously in
// submission order at Submit time and completions drain FIFO. It keeps
// the exact SQ/CQ call shape so engine code paths are identical, but
// removes all scheduling nondeterminism — the backend of choice for
// bit-reproducibility tests.
type simRing struct {
	f       *os.File
	entries int
	staged  []poolReq
	done    []CQE
	cq      []CQE
	preads  int64
}

func newSim(f *os.File, o Options) *simRing {
	return &simRing{f: f, entries: o.Entries}
}

func (r *simRing) PrepRead(id uint64, off int64, buf []byte) bool {
	if len(r.staged) >= r.entries || len(r.done)+len(r.staged) >= 2*r.entries {
		return false
	}
	r.staged = append(r.staged, poolReq{id: id, off: off, buf: buf})
	return true
}

func (r *simRing) Submit() (int, error) {
	n := len(r.staged)
	for _, rq := range r.staged {
		nn, err := r.f.ReadAt(rq.buf, rq.off)
		r.preads++
		r.done = append(r.done, CQE{ID: rq.id, Res: errnoResult(nn, err)})
	}
	r.staged = r.staged[:0]
	return n, nil
}

func (r *simRing) Wait(min int) ([]CQE, error) {
	r.cq = append(r.cq[:0], r.done...)
	r.done = r.done[:0]
	return r.cq, nil
}

func (r *simRing) Entries() int { return r.entries }

func (r *simRing) Syscalls() Syscalls { return Syscalls{Submits: r.preads} }

func (r *simRing) Close() error { return nil }
