package uring

import (
	"fmt"
	"syscall"

	"ringsampler/internal/sample"
)

// FaultPlan configures deterministic fault injection over a wrapped
// ring. All rates are probabilities in [0, 1]; the injection sequence
// is a pure function of (Seed, call sequence), so a failing run replays
// exactly. The injected faults are the real kernel behaviors the paper's
// SQ/CQ pipeline must absorb: short reads, transient negated errnos,
// hard I/O errors, SQ-full submission rejections, and delayed/reordered
// completions.
type FaultPlan struct {
	// Seed drives all injection randomness.
	Seed uint64
	// ShortReadRate truncates a read to a random non-empty prefix; the
	// prefix bytes are real data from the underlying ring, so consumers
	// must resubmit the remaining byte range (which may split mid-entry).
	ShortReadRate float64
	// TransientRate completes a request with -EINTR or -EAGAIN without
	// touching the underlying ring.
	TransientRate float64
	// HardErrRate completes a request with -EIO without touching the
	// underlying ring. Consumers are expected to fail the operation.
	HardErrRate float64
	// RejectRate makes PrepRead return false (SQ-full backpressure).
	// Rejections are only injected while work is staged or in flight and
	// are capped per call site, so a well-behaved consumer can always
	// make progress.
	RejectRate float64
	// DelayRate holds a completion back for 1..MaxDelay further Wait
	// calls, reordering it behind later completions.
	DelayRate float64
	// MaxDelay is the maximum number of Wait calls a delayed completion
	// is held (default 3 when zero).
	MaxDelay int
}

func (p *FaultPlan) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"ShortReadRate", p.ShortReadRate},
		{"TransientRate", p.TransientRate},
		{"HardErrRate", p.HardErrRate},
		{"RejectRate", p.RejectRate},
		{"DelayRate", p.DelayRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("uring: fault plan %s = %v outside [0,1]", r.name, r.v)
		}
	}
	if p.ShortReadRate+p.TransientRate+p.HardErrRate > 1 {
		return fmt.Errorf("uring: fault plan per-request rates sum to %v > 1",
			p.ShortReadRate+p.TransientRate+p.HardErrRate)
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("uring: fault plan MaxDelay = %d negative", p.MaxDelay)
	}
	return nil
}

// FaultStats counts the faults a FaultRing actually injected.
type FaultStats struct {
	Rejected   int64 // PrepRead calls refused
	ShortReads int64 // reads truncated
	Transient  int64 // -EINTR/-EAGAIN completions synthesized
	Hard       int64 // -EIO completions synthesized
	Delayed    int64 // completions held back at least one Wait
}

// Total returns the total number of injected fault events.
func (s FaultStats) Total() int64 {
	return s.Rejected + s.ShortReads + s.Transient + s.Hard + s.Delayed
}

// maxConsecReject bounds back-to-back injected PrepRead rejections so
// retry loops spin a bounded number of times per staging pass.
const maxConsecReject = 4

// faultRing wraps any Ring and injects faults per a FaultPlan while
// preserving the ring contract: every accepted request still completes
// exactly once, successful bytes are still real file bytes, and
// PrepRead is never refused while the ring is idle. It is the adversary
// the consumer-side retry path is tested against.
type faultRing struct {
	inner Ring
	plan  FaultPlan
	rng   sample.RNG
	stats FaultStats

	innerStaged   int   // requests staged into inner, not yet submitted
	innerInflight int   // requests submitted to inner, not yet harvested
	synthStaged   []CQE // synthesized completions awaiting Submit
	held          []heldCQE
	ready         []CQE
	inflight      int // total accepted-and-submitted, not yet returned
	consecReject  int
	cq            []CQE
}

type heldCQE struct {
	c   CQE
	ttl int // Wait calls remaining before release
}

// NewFault wraps inner with deterministic fault injection. The wrapped
// ring owns inner: Close closes it.
func NewFault(inner Ring, plan FaultPlan) (Ring, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	if plan.MaxDelay == 0 {
		plan.MaxDelay = 3
	}
	return &faultRing{
		inner: inner,
		plan:  plan,
		rng:   sample.NewRNG(sample.Mix(plan.Seed, 0xfa01)),
	}, nil
}

// Faults returns the injection counters of a ring created by NewFault.
func Faults(r Ring) (FaultStats, bool) {
	fr, ok := r.(*faultRing)
	if !ok {
		return FaultStats{}, false
	}
	return fr.stats, true
}

func (r *faultRing) PrepRead(id uint64, off int64, buf []byte) bool {
	// Capacity: synthesized completions bypass the inner ring, so the
	// wrapper enforces the SQ/CQ bounds itself.
	staged := r.innerStaged + len(r.synthStaged)
	if staged >= r.inner.Entries() || r.inflight+staged >= 2*r.inner.Entries() {
		return false
	}
	// Injected SQ-full rejection — never while idle, never unboundedly.
	if r.plan.RejectRate > 0 && r.consecReject < maxConsecReject &&
		(r.inflight > 0 || staged > 0) && r.rng.Float64() < r.plan.RejectRate {
		r.consecReject++
		r.stats.Rejected++
		return false
	}
	f := r.rng.Float64()
	switch {
	case f < r.plan.TransientRate:
		errno := syscall.EINTR
		if r.rng.Next()&1 == 0 {
			errno = syscall.EAGAIN
		}
		r.synthStaged = append(r.synthStaged, CQE{ID: id, Res: -int32(errno)})
		r.stats.Transient++
	case f < r.plan.TransientRate+r.plan.HardErrRate:
		r.synthStaged = append(r.synthStaged, CQE{ID: id, Res: -int32(syscall.EIO)})
		r.stats.Hard++
	case f < r.plan.TransientRate+r.plan.HardErrRate+r.plan.ShortReadRate && len(buf) >= 2:
		// Truncate to a random non-empty strict prefix; the inner ring
		// reads real bytes into it, so the completion is a genuine short
		// read (possibly splitting an entry mid-way).
		cut := 1 + r.rng.Intn(len(buf)-1)
		if !r.inner.PrepRead(id, off, buf[:cut]) {
			return false
		}
		r.innerStaged++
		r.stats.ShortReads++
	default:
		if !r.inner.PrepRead(id, off, buf) {
			return false
		}
		r.innerStaged++
	}
	r.consecReject = 0
	return true
}

func (r *faultRing) Submit() (int, error) {
	n := r.innerStaged + len(r.synthStaged)
	if r.innerStaged > 0 {
		if _, err := r.inner.Submit(); err != nil {
			return 0, err
		}
		r.innerInflight += r.innerStaged
		r.innerStaged = 0
	}
	// Synthesized completions become visible only after Submit, like
	// every other completion; some are additionally delayed.
	for _, c := range r.synthStaged {
		r.held = append(r.held, heldCQE{c: c, ttl: r.delayTTL()})
	}
	r.synthStaged = r.synthStaged[:0]
	r.inflight += n
	return n, nil
}

// delayTTL draws how many Wait calls a completion is held back: 0 means
// visible at the next Wait.
func (r *faultRing) delayTTL() int {
	if r.plan.DelayRate > 0 && r.rng.Float64() < r.plan.DelayRate {
		r.stats.Delayed++
		return 1 + r.rng.Intn(r.plan.MaxDelay)
	}
	return 0
}

// harvest pulls completions out of the inner ring (blocking for at
// least min of them) and routes each to ready or held.
func (r *faultRing) harvest(min int) error {
	if r.innerInflight == 0 {
		return nil
	}
	cqes, err := r.inner.Wait(min)
	if err != nil {
		return err
	}
	r.innerInflight -= len(cqes)
	for _, c := range cqes {
		if ttl := r.delayTTL(); ttl > 0 {
			r.held = append(r.held, heldCQE{c: c, ttl: ttl})
		} else {
			r.ready = append(r.ready, c)
		}
	}
	return nil
}

// mature ages held completions by one Wait call and releases the ones
// whose delay has elapsed, preserving hold order.
func (r *faultRing) mature() {
	kept := r.held[:0]
	for _, h := range r.held {
		h.ttl--
		if h.ttl <= 0 {
			r.ready = append(r.ready, h.c)
		} else {
			kept = append(kept, h)
		}
	}
	r.held = kept
}

func (r *faultRing) Wait(min int) ([]CQE, error) {
	if min > r.inflight {
		min = r.inflight
	}
	r.mature()
	if err := r.harvest(0); err != nil {
		return nil, err
	}
	for len(r.ready) < min {
		if r.innerInflight > 0 {
			if err := r.harvest(1); err != nil {
				return nil, err
			}
			continue
		}
		if len(r.held) == 0 {
			break
		}
		// Nothing left in flight below us: force-release held
		// completions (oldest first) to honor Wait's min contract.
		r.ready = append(r.ready, r.held[0].c)
		r.held = r.held[1:]
	}
	r.cq = append(r.cq[:0], r.ready...)
	r.ready = r.ready[:0]
	r.inflight -= len(r.cq)
	return r.cq, nil
}

func (r *faultRing) Entries() int { return r.inner.Entries() }

// Syscalls forwards to the wrapped ring's counters when it has them.
func (r *faultRing) Syscalls() Syscalls {
	if sr, ok := r.inner.(SyscallReporter); ok {
		return sr.Syscalls()
	}
	return Syscalls{}
}

func (r *faultRing) Close() error {
	// Drain everything below us so the inner ring is not writing into
	// caller buffers after Close returns.
	for r.innerInflight > 0 {
		if err := r.harvest(1); err != nil {
			break
		}
	}
	r.held = nil
	r.ready = nil
	r.synthStaged = nil
	r.inflight = 0
	return r.inner.Close()
}
