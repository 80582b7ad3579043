package core

import (
	"errors"
	"fmt"
	"io"
	"syscall"
)

// ErrRingStalled marks a ring that violated the never-refuse-while-idle
// contract: the worker had reads outstanding (fresh or awaiting retry),
// nothing staged and nothing in flight, yet the ring refused every
// PrepRead and produced no completions — the iteration could not make
// progress and would have spun forever. Surfaced wrapped with the
// stalled request counts; match with errors.Is.
var ErrRingStalled = errors.New("ring refused to stage while idle")

// ErrWorkerBroken marks a worker whose ring could not be proven empty
// after a failed batch: the ring errored (or stopped producing
// completions it owed) while the worker was quarantining in-flight
// requests, so a reused worker could harvest stale completions whose
// IDs index into a newer batch's request table. Such a worker refuses
// SampleBatch; callers create a fresh worker instead. Match with
// errors.Is.
var ErrWorkerBroken = errors.New("worker ring may hold stale completions from a failed batch; create a new worker")

// IOError is the structured error a worker surfaces when one ring read
// cannot be completed: either a non-retryable errno came back, or the
// bounded retry budget was exhausted by transient results (-EINTR,
// -EAGAIN, short reads). Offset/Bytes describe the byte range that was
// still outstanding when the worker gave up — after partial progress
// through short reads, that is the unread tail, not the original
// request.
type IOError struct {
	// Offset is the edge-file byte offset of the failed read.
	Offset int64
	// Bytes is how many bytes were still outstanding.
	Bytes int64
	// Attempts is how many retries had been spent on the request.
	Attempts int
	// Errno is the final negated-errno result, or 0 when the retry
	// budget was exhausted by short reads alone.
	Errno syscall.Errno
	// ShortRead records that the final completion before giving up was
	// a short read — the device kept delivering truncated prefixes (or
	// zero bytes, as reads at or past EOF do) until the retry budget ran
	// out. It distinguishes a truncated-file/racing-writer condition
	// from an errno failure without overloading Errno with a sentinel.
	ShortRead bool
}

func (e *IOError) Error() string {
	if e.Errno != 0 {
		return fmt.Sprintf("core: read of %d bytes at offset %d failed after %d retries: %v",
			e.Bytes, e.Offset, e.Attempts, e.Errno)
	}
	if e.ShortRead {
		return fmt.Sprintf("core: read of %d bytes at offset %d: retry budget exhausted by short reads after %d attempts (truncated file or racing writer?)",
			e.Bytes, e.Offset, e.Attempts)
	}
	return fmt.Sprintf("core: read of %d bytes at offset %d still short after %d retries",
		e.Bytes, e.Offset, e.Attempts)
}

// Unwrap exposes the underlying cause for errors.Is/As: the final
// errno, or io.ErrUnexpectedEOF for short-read exhaustion.
func (e *IOError) Unwrap() error {
	if e.Errno != 0 {
		return e.Errno
	}
	return io.ErrUnexpectedEOF
}

// IOStats counts a worker's ring-level I/O activity, including the
// retry traffic the fault-injection suite provokes. Counters accumulate
// across batches for the lifetime of the worker.
type IOStats struct {
	// Reads is the number of planned read requests completed in full.
	Reads int64
	// BytesRead is the total bytes successfully read (short-read
	// prefixes included).
	BytesRead int64
	// Retries is the number of resubmissions (transient errnos plus
	// short-read remainders).
	Retries int64
	// ShortReads is how many completions returned fewer bytes than
	// requested.
	ShortReads int64
	// TransientErrs is how many completions returned -EINTR/-EAGAIN.
	TransientErrs int64
	// StaleDrained is how many completions were harvested and discarded
	// while quarantining a failed batch's in-flight requests (the
	// worker-reuse safety path).
	StaleDrained int64
	// CacheHits / CacheMisses count per-node lookups in the
	// hot-neighbor cache (one per non-isolated frontier node per layer;
	// always zero when the cache is disabled). CacheBytes is the bytes
	// served from the cache instead of the device — sampled-entry bytes
	// on the offset path, full list bytes on the full-fetch path.
	CacheHits   int64
	CacheMisses int64
	CacheBytes  int64
	// FeatReads / FeatBytesRead count the feature-file side of the ring
	// traffic: requests completed in full against features.bin and the
	// bytes they delivered. The edge-file counters above never include
	// feature traffic, so the two workloads stay separately attributable;
	// the retry-machinery counters (Retries, ShortReads, TransientErrs,
	// FixedReads, AlignSlackBytes) are shared across both files.
	FeatReads     int64
	FeatBytesRead int64
	// FeatCacheHits / FeatCacheMisses / FeatCacheBytes mirror the
	// neighbor-cache counters for the hot-node feature cache: per-node
	// vector lookups and the feature bytes served from memory instead of
	// the device.
	FeatCacheHits   int64
	FeatCacheMisses int64
	FeatCacheBytes  int64
	// FeatCacheAdmitted / FeatCacheEvicted count the rows an adaptive
	// feature cache swapped in and out at epoch-boundary re-admissions
	// (RunEpochSeeded). The reads that filled the admitted rows are in
	// FeatReads / FeatBytesRead, so what learning costs the device is
	// part of the epoch it served. No worker performs a re-admission:
	// these appear in EpochStats.IO, never in PerWorker.
	FeatCacheAdmitted int64
	FeatCacheEvicted  int64
	// FixedReads is how many requests completed through a registered
	// fixed buffer (IORING_OP_READ_FIXED, or its pool/sim emulation).
	FixedReads int64
	// AlignSlackBytes is the device bytes the O_DIRECT path read beyond
	// the requested entry ranges: alignment rounding plus re-read overlap
	// after aligned resubmission (see DeviceBytes).
	AlignSlackBytes int64
	// SubmitSyscalls / WaitSyscalls are the worker ring's kernel
	// crossings (see uring.Syscalls): submission-side enters (or preads
	// for pool/sim) and blocking completion-side enters. Divide by batch
	// count for the paper's syscalls-per-batch metric.
	SubmitSyscalls int64
	WaitSyscalls   int64
	// UserCPUNanos / SysCPUNanos are the CPU time the worker's pinned OS
	// thread spent in user space and in the kernel between the worker's
	// start and this snapshot (stamped by a ThreadClock the worker's
	// owner runs: the epoch runner and the serve pool; zero for
	// workers run on unpinned goroutines, and on non-Linux). Divided by
	// Reads+FeatReads they are the per-read cost split — what the engine
	// adds on top of the kernel's read path.
	UserCPUNanos int64
	SysCPUNanos  int64
	// Active* record which fast-path knobs actually ran for this worker —
	// after capability downgrades — so benchmark output is honest about
	// what was measured. OR-merged by Add.
	ActiveFixed    bool
	ActiveRegFiles bool
	ActiveSQPoll   bool
	ActiveODirect  bool
}

// Add accumulates o's counters into s. The epoch runner uses it to
// merge per-worker stats into EpochStats totals.
func (s *IOStats) Add(o IOStats) {
	s.Reads += o.Reads
	s.BytesRead += o.BytesRead
	s.Retries += o.Retries
	s.ShortReads += o.ShortReads
	s.TransientErrs += o.TransientErrs
	s.StaleDrained += o.StaleDrained
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheBytes += o.CacheBytes
	s.FeatReads += o.FeatReads
	s.FeatBytesRead += o.FeatBytesRead
	s.FeatCacheHits += o.FeatCacheHits
	s.FeatCacheMisses += o.FeatCacheMisses
	s.FeatCacheBytes += o.FeatCacheBytes
	s.FeatCacheAdmitted += o.FeatCacheAdmitted
	s.FeatCacheEvicted += o.FeatCacheEvicted
	s.FixedReads += o.FixedReads
	s.AlignSlackBytes += o.AlignSlackBytes
	s.SubmitSyscalls += o.SubmitSyscalls
	s.WaitSyscalls += o.WaitSyscalls
	s.UserCPUNanos += o.UserCPUNanos
	s.SysCPUNanos += o.SysCPUNanos
	s.ActiveFixed = s.ActiveFixed || o.ActiveFixed
	s.ActiveRegFiles = s.ActiveRegFiles || o.ActiveRegFiles
	s.ActiveSQPoll = s.ActiveSQPoll || o.ActiveSQPoll
	s.ActiveODirect = s.ActiveODirect || o.ActiveODirect
}

// DeviceBytes is everything these counters saw cross the storage
// boundary: edge bytes, the O_DIRECT path's alignment slack, and feature
// bytes (cache fills included).
func (s *IOStats) DeviceBytes() int64 {
	return s.BytesRead + s.AlignSlackBytes + s.FeatBytesRead
}

// transientErrno reports whether errno is worth retrying: the request
// did not execute and may succeed verbatim. EWOULDBLOCK aliases EAGAIN
// on every platform this builds on.
func transientErrno(e syscall.Errno) bool {
	return e == syscall.EINTR || e == syscall.EAGAIN
}
