// Package uring is the submission/completion ring abstraction the
// RingSampler engine is written against. Three backends implement it:
//
//   - BackendIOURing: a from-scratch Linux io_uring binding (raw
//     io_uring_setup/io_uring_enter/io_uring_register syscalls + mmap'd
//     SQ/CQ rings, no cgo, no liburing). The paper's real I/O path:
//     one read opcode, IORING_OP_READ.
//   - BackendPool: a portable pread worker pool with the same batched
//     SQ/CQ semantics. Always available; this is what keeps the engine
//     running on non-Linux platforms and inside seccomp sandboxes.
//   - BackendSim: a deterministic synchronous backend (reads happen at
//     Submit, completions drain FIFO) for reproducible tests.
//
// All backends share the io_uring shape deliberately: requests are
// prepared into a bounded submission queue, published in one Submit,
// and harvested as a batch of completions — the asynchronous group
// pipeline of paper §3.2 depends on exactly these semantics. Driver is
// that pipeline: the one read loop every reader of the engine runs on
// a Ring.
package uring

import (
	"fmt"
	"os"
	"sync"
	"unsafe"
)

// Backend names a ring implementation.
type Backend string

const (
	BackendIOURing Backend = "io_uring"
	BackendPool    Backend = "pool"
	BackendSim     Backend = "sim"
)

// Auto is the backend the engine runs on, probed, never named: io_uring
// when Probe finds a usable ring, the portable pread pool otherwise.
func Auto() Backend {
	if Probe().Ring {
		return BackendIOURing
	}
	return BackendPool
}

// CQE is one completion: the user-assigned request ID and the raw
// result (bytes read, or a negated errno on failure — io_uring's
// convention, kept across all backends).
type CQE struct {
	ID  uint64
	Res int32
}

// Ring is a single-owner SQ/CQ pair. Rings are NOT safe for concurrent
// use: the engine gives each worker thread a private ring (paper
// Fig 3a), which is also what makes the real io_uring mapping sound.
//
// The ring contract — what every backend (real io_uring, pread pool,
// deterministic sim, and the fault-injecting wrapper) guarantees and
// what consumers must absorb. The conformance suites
// (internal/uring/conformance_test.go, internal/core/conformance_test.go)
// execute this contract against all backends:
//
//   - Exactly-once completion: every request accepted by PrepRead and
//     published by Submit produces exactly one CQE carrying its ID.
//     Completions may arrive in ANY order and spread over any number of
//     Wait calls.
//   - Result convention: Res >= 0 is bytes read into the buffer prefix
//     buf[:Res]; Res in [0, len(buf)) is a short read (the prefix is
//     valid data — reading at or past EOF yields the truncated count,
//     exactly like pread(2)). Res < 0 is a negated errno; no bytes are
//     valid. Backends report real errnos (-EINTR, -EAGAIN, -EBADF,
//     ...), never a collapsed stand-in.
//   - Transient results: -EINTR and -EAGAIN, like short reads, are
//     retryable — the request did not happen (or only partially
//     happened) and the consumer is expected to resubmit the remaining
//     byte range. Consumers that cannot retry must treat them as hard
//     failures.
//   - Backpressure: PrepRead returning false is not an error; it means
//     the SQ is full or too many requests are in flight. Submit and/or
//     Wait, then retry. A ring never refuses a PrepRead while it is
//     completely idle (nothing staged or in flight).
//   - Wait(min) with min larger than the in-flight count is clamped;
//     Wait(0) is a non-blocking poll.
type Ring interface {
	// PrepRead stages a read of len(buf) bytes at byte offset off into
	// the submission queue. It returns false when the SQ is full or too
	// many requests are in flight — the caller should Submit and/or
	// Wait, then retry.
	PrepRead(id uint64, off int64, buf []byte) bool
	// Submit publishes all staged requests and returns how many were
	// accepted.
	Submit() (int, error)
	// Wait blocks until at least min completions are available, then
	// returns every completion currently available. min 0 polls. The
	// returned slice is reused by the next Wait call.
	Wait(min int) ([]CQE, error)
	// Entries returns the submission-queue capacity.
	Entries() int
	// Close tears the ring down. In-flight requests are drained first.
	Close() error
}

// Syscalls counts a ring's kernel crossings: Submits is submission-side
// syscalls (io_uring_enter with work to publish; one pread(2) per
// request for the pool and sim backends, their true submission cost),
// Waits is blocking
// completion-side syscalls (io_uring_enter GETEVENTS; zero for pool/sim,
// which complete in user space). The benchmark harness reports them per
// batch and per thousand reads.
type Syscalls struct {
	Submits int64
	Waits   int64
}

// SyscallReporter is implemented by rings that track their kernel
// crossings. Wrappers (the fault ring) forward to the wrapped ring.
type SyscallReporter interface {
	Syscalls() Syscalls
}

// Caps is the capability set of the real io_uring backend in this
// environment, as probed at first use.
type Caps struct {
	// Ring: io_uring_setup, the three ring mmaps, and io_uring_enter all
	// work. The gate for BackendIOURing; false on non-Linux, old kernels
	// and seccomp sandboxes.
	Ring bool
}

// String renders the capability set: "ring" or "unavailable".
func (c Caps) String() string {
	if !c.Ring {
		return "unavailable"
	}
	return "ring"
}

// Options configures ring construction.
type Options struct {
	// Entries is the SQ capacity (<= 0 selects DefaultEntries).
	Entries int
}

// DefaultEntries is the paper's default ring size.
const DefaultEntries = 512

// New opens a plain ring over f with the given SQ capacity (entries
// <= 0 selects DefaultEntries). Shorthand for NewWith with only
// Entries set.
func New(be Backend, f *os.File, entries int) (Ring, error) {
	return NewWith(be, f, Options{Entries: entries})
}

// NewWith opens a ring over f with explicit Options. The real backend
// fails when Probe finds no usable ring — callers gate on Probe() and
// fall back themselves, so a downgrade is always a visible decision,
// never a silent one.
func NewWith(be Backend, f *os.File, o Options) (Ring, error) {
	if o.Entries <= 0 {
		o.Entries = DefaultEntries
	}
	switch be {
	case BackendPool:
		return newPool(f, o), nil
	case BackendSim:
		return newSim(f, o), nil
	case BackendIOURing:
		return newIOURing(f, o)
	default:
		return nil, fmt.Errorf("uring: unknown backend %q", be)
	}
}

var (
	probeOnce sync.Once
	probeCaps Caps
)

// Probe reports the real io_uring backend's capability set in this
// environment: whether the base binding works (syscalls exist, the
// sandbox permits them, the ring mmaps succeed). It never panics and
// caches its result — where Caps.Ring is false the engine runs on
// BackendPool.
func Probe() Caps {
	probeOnce.Do(func() {
		defer func() {
			if recover() != nil {
				probeCaps = Caps{}
			}
		}()
		probeCaps = probe()
	})
	return probeCaps
}

// sliceWithin reports whether inner is a non-empty sub-slice of outer's
// backing bytes.
func sliceWithin(outer, inner []byte) bool {
	if len(outer) == 0 || len(inner) == 0 {
		return false
	}
	o0 := uintptr(unsafe.Pointer(&outer[0]))
	i0 := uintptr(unsafe.Pointer(&inner[0]))
	return i0 >= o0 && i0+uintptr(len(inner)) <= o0+uintptr(len(outer))
}
