package uring

import "os"

// simRing is the deterministic backend: reads execute synchronously in
// submission order at Submit time and completions drain FIFO. It keeps
// the exact SQ/CQ call shape so engine code paths are identical, but
// removes all scheduling nondeterminism — the backend of choice for
// bit-reproducibility tests. Fixed buffers are emulated like the pool
// backend (validate index and bounds, then read normally; invalid
// references complete with -EINVAL/-EFAULT at Submit).
type simRing struct {
	f       *os.File
	entries int
	arenas  [][]byte
	staged  []poolReq
	synth   []synthCQE
	done    []CQE
	cq      []CQE
	preads  int64
}

// synthCQE is an invalid fixed-read completion interleaved into the
// staged sequence so FIFO completion order is preserved exactly.
type synthCQE struct {
	pos int // index into the staged sequence
	c   CQE
}

func newSim(f *os.File, o Options) *simRing {
	return &simRing{f: f, entries: o.Entries, arenas: o.FixedBuffers}
}

func (r *simRing) stagedCount() int { return len(r.staged) + len(r.synth) }

func (r *simRing) PrepRead(id uint64, off int64, buf []byte) bool {
	if r.stagedCount() >= r.entries || len(r.done)+r.stagedCount() >= 2*r.entries {
		return false
	}
	r.staged = append(r.staged, poolReq{id: id, off: off, buf: buf})
	return true
}

func (r *simRing) PrepReadFixed(id uint64, off int64, buf []byte, bufIndex int) bool {
	if res := fixedCheck(r.arenas, buf, bufIndex); res != 0 {
		if r.stagedCount() >= r.entries || len(r.done)+r.stagedCount() >= 2*r.entries {
			return false
		}
		r.synth = append(r.synth, synthCQE{pos: r.stagedCount(), c: CQE{ID: id, Res: res}})
		return true
	}
	return r.PrepRead(id, off, buf)
}

func (r *simRing) Submit() (int, error) {
	n := r.stagedCount()
	si := 0
	pos := 0
	for _, rq := range r.staged {
		for si < len(r.synth) && r.synth[si].pos == pos {
			r.done = append(r.done, r.synth[si].c)
			si++
			pos++
		}
		nn, err := r.f.ReadAt(rq.buf, rq.off)
		r.preads++
		r.done = append(r.done, CQE{ID: rq.id, Res: errnoResult(nn, err)})
		pos++
	}
	for si < len(r.synth) {
		r.done = append(r.done, r.synth[si].c)
		si++
	}
	r.staged = r.staged[:0]
	r.synth = r.synth[:0]
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
