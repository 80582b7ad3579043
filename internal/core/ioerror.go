package core

import (
	"errors"

	"ringsampler/internal/uring"
)

// ErrRingStalled marks a ring that refused to stage while idle (see
// uring.ErrRingStalled); match with errors.Is.
var ErrRingStalled = uring.ErrRingStalled

// ErrWorkerBroken marks a worker whose ring could not be proven empty
// after a failed batch: the ring errored (or stopped producing
// completions it owed) while the worker was quarantining in-flight
// requests, so a reused worker could harvest stale completions whose
// IDs index into a newer batch's request table. Such a worker refuses
// every call; callers create a fresh worker instead. Match with
// errors.Is.
var ErrWorkerBroken = errors.New("worker ring may hold stale completions from a failed batch; create a new worker")

// IOError is the structured error a worker surfaces when one ring read
// cannot be completed (see uring.IOError); match with errors.As.
type IOError = uring.IOError

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
	// always zero when the cache is disabled). CacheBytes is the
	// sampled-entry bytes served from the cache instead of the device.
	CacheHits   int64
	CacheMisses int64
	CacheBytes  int64
	// FeatReads / FeatBytesRead count the feature-file side of the ring
	// traffic: requests completed in full against features.bin and the
	// bytes they delivered. The edge-file counters above never include
	// feature traffic, so the two workloads stay separately attributable;
	// the retry-machinery counters (Retries, ShortReads, TransientErrs,
	// AlignSlackBytes) are shared across both files.
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
	// FixedReads is always 0: the engine has one read opcode and no
	// registered buffers. It stays because the benchmark harness reports
	// it.
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
	// UserCPUNanos / SysCPUNanos are the CPU time the worker's jobs
	// spent in user space and in the kernel: the sum, over the jobs a
	// Pool slot ran on the worker (epoch runner, serve and in-process
	// shards alike), of the locked OS thread's CPU from the job's start
	// to its end. Time a slot spends waiting for a job is nobody's; zero
	// for workers run outside a Pool, and on non-Linux. Divided by
	// Reads+FeatReads they are the per-read cost split — what the engine
	// adds on top of the kernel's read path.
	UserCPUNanos int64
	SysCPUNanos  int64
	// ActiveODirect records that O_DIRECT actually ran for this worker —
	// after the dataset's probe — so benchmark output is honest about
	// what was measured. OR-merged by Add.
	ActiveODirect bool
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
	s.AlignSlackBytes += o.AlignSlackBytes
	s.SubmitSyscalls += o.SubmitSyscalls
	s.WaitSyscalls += o.WaitSyscalls
	s.UserCPUNanos += o.UserCPUNanos
	s.SysCPUNanos += o.SysCPUNanos
	s.ActiveODirect = s.ActiveODirect || o.ActiveODirect
}

// DeviceBytes is everything these counters saw cross the storage
// boundary: edge bytes, the O_DIRECT path's alignment slack, and feature
// bytes (cache fills included).
func (s *IOStats) DeviceBytes() int64 {
	return s.BytesRead + s.AlignSlackBytes + s.FeatBytesRead
}
