package serve

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"ringsampler/internal/core"
)

// hist is a lock-free fixed-bucket histogram rendered in Prometheus
// cumulative form. Buckets are powers of two in the histogram's native
// unit (nanoseconds for durations, plain counts for sizes); a scale
// factor applied at render time converts bounds to the exported unit
// (seconds for durations). Observations above the last bound land in
// the +Inf bucket.
type hist struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; the extra slot is +Inf
	sum    atomic.Int64
}

func newHist(bounds []int64) *hist {
	return &hist{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value. Linear bucket search: bucket counts are
// small (≤ 24) and the slice is cache-resident, so this beats a binary
// search at serving rates.
func (h *hist) Observe(v int64) {
	h.sum.Add(v)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// Count returns the number of observations.
func (h *hist) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// durBounds covers [1µs, ~8.4s] in power-of-two steps — the same
// log2-µs shape as core.LatencyHist, expressed in nanoseconds.
func durBounds() []int64 {
	out := make([]int64, 24)
	for i := range out {
		out[i] = int64(time.Microsecond) << i
	}
	return out
}

// sizeBounds covers [1, 65536] in power-of-two steps.
func sizeBounds() []int64 {
	out := make([]int64, 17)
	for i := range out {
		out[i] = 1 << i
	}
	return out
}

// metrics is the serving layer's observability surface, exported in
// Prometheus text format by GET /metrics. Everything is atomic: the
// hot path never takes a lock to count.
type metrics struct {
	// Admission / request lifecycle counters.
	requests         atomic.Int64 // requests admitted past validation
	featureRequests  atomic.Int64 // admitted requests that asked for features
	responsesOK      atomic.Int64 // 200s served
	rejectedFull     atomic.Int64 // 429: bounded queue was full
	rejectedDraining atomic.Int64 // 503: server was draining
	badRequests      atomic.Int64 // 400: validation failures
	deadlineExceeded atomic.Int64 // 504: per-request deadline fired
	canceledJobs     atomic.Int64 // jobs skipped because their request died
	sampleErrors     atomic.Int64 // 500: engine-level sampling failures
	shardCalls       atomic.Int64 // shard-protocol calls served (/v1/shard/*)

	// Pipeline gauges and counters.
	queueDepth     atomic.Int64 // jobs admitted but not yet picked up
	inflight       atomic.Int64 // requests currently being handled
	dispatched     atomic.Int64 // micro-batches flushed to the pool
	workersRetired atomic.Int64 // broken workers retired and replaced

	// Batch-shape and per-stage latency histograms.
	batchTargets *hist // targets per micro-batch
	batchJobs    *hist // jobs per micro-batch
	queueWait    *hist // ns: enqueue → worker pickup
	sampleLat    *hist // ns: one job's sampling time
	requestLat   *hist // ns: admission → response, successful requests
}

func newMetrics() *metrics {
	return &metrics{
		batchTargets: newHist(sizeBounds()),
		batchJobs:    newHist(sizeBounds()),
		queueWait:    newHist(durBounds()),
		sampleLat:    newHist(durBounds()),
		requestLat:   newHist(durBounds()),
	}
}

func writeMetric(w io.Writer, name, typ, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHist renders h as a Prometheus histogram with cumulative
// buckets; scale converts the native unit to the exported one
// (1e-9 for ns → s, 1 for counts).
func writeHist(w io.Writer, name, help string, h *hist, scale float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(float64(b)*scale), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(h.sum.Load())*scale))
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// write renders the full metrics surface: serving-layer counters and
// histograms plus the pool's merged ring-level IOStats (live workers
// and retired ones — retirement never drops counters).
func (m *metrics) write(w io.Writer, ioStats core.IOStats, workers, queueCap int) {
	writeMetric(w, "ringsampler_serve_requests_total", "counter", "Requests admitted past validation.", m.requests.Load())
	writeMetric(w, "ringsampler_serve_feature_requests_total", "counter", "Admitted requests that asked for feature payloads.", m.featureRequests.Load())
	writeMetric(w, "ringsampler_serve_responses_ok_total", "counter", "Requests answered 200.", m.responsesOK.Load())
	writeMetric(w, "ringsampler_serve_rejected_total", "counter", "Requests fast-failed 429 because the admission queue was full.", m.rejectedFull.Load())
	writeMetric(w, "ringsampler_serve_rejected_draining_total", "counter", "Requests refused 503 while draining.", m.rejectedDraining.Load())
	writeMetric(w, "ringsampler_serve_bad_requests_total", "counter", "Requests rejected 400 by validation.", m.badRequests.Load())
	writeMetric(w, "ringsampler_serve_deadline_exceeded_total", "counter", "Requests that hit their deadline (504).", m.deadlineExceeded.Load())
	writeMetric(w, "ringsampler_serve_canceled_jobs_total", "counter", "Jobs skipped because their request was already dead.", m.canceledJobs.Load())
	writeMetric(w, "ringsampler_serve_errors_total", "counter", "Requests failed 500 by an engine error.", m.sampleErrors.Load())
	writeMetric(w, "ringsampler_serve_shard_calls_total", "counter", "Shard-protocol calls served (/v1/shard/layer and /v1/shard/features).", m.shardCalls.Load())

	writeMetric(w, "ringsampler_serve_queue_depth", "gauge", "Jobs admitted but not yet picked up by a worker.", m.queueDepth.Load())
	writeMetric(w, "ringsampler_serve_queue_capacity", "gauge", "Bounded admission queue capacity (jobs).", int64(queueCap))
	writeMetric(w, "ringsampler_serve_inflight_requests", "gauge", "Requests currently being handled.", m.inflight.Load())
	writeMetric(w, "ringsampler_serve_workers", "gauge", "Size of the pinned worker pool.", int64(workers))
	writeMetric(w, "ringsampler_serve_batches_total", "counter", "Micro-batches dispatched to the worker pool.", m.dispatched.Load())
	writeMetric(w, "ringsampler_serve_workers_retired_total", "counter", "Broken workers retired and replaced.", m.workersRetired.Load())

	writeHist(w, "ringsampler_serve_batch_targets", "Target nodes per dispatched micro-batch.", m.batchTargets, 1)
	writeHist(w, "ringsampler_serve_batch_jobs", "Jobs per dispatched micro-batch.", m.batchJobs, 1)
	writeHist(w, "ringsampler_serve_queue_wait_seconds", "Time from admission to worker pickup.", m.queueWait, 1e-9)
	writeHist(w, "ringsampler_serve_sample_seconds", "Per-job engine sampling time.", m.sampleLat, 1e-9)
	writeHist(w, "ringsampler_serve_request_seconds", "End-to-end latency of successful requests.", m.requestLat, 1e-9)

	writeMetric(w, "ringsampler_io_reads_total", "counter", "Ring read requests completed in full.", ioStats.Reads)
	writeMetric(w, "ringsampler_io_bytes_read_total", "counter", "Bytes read from the device.", ioStats.BytesRead)
	writeMetric(w, "ringsampler_io_retries_total", "counter", "Ring read resubmissions.", ioStats.Retries)
	writeMetric(w, "ringsampler_io_short_reads_total", "counter", "Completions that returned fewer bytes than requested.", ioStats.ShortReads)
	writeMetric(w, "ringsampler_io_transient_errors_total", "counter", "Completions that returned -EINTR/-EAGAIN.", ioStats.TransientErrs)
	writeMetric(w, "ringsampler_io_stale_drained_total", "counter", "Stale completions drained while quarantining failed batches.", ioStats.StaleDrained)
	writeMetric(w, "ringsampler_io_cache_hits_total", "counter", "Hot-neighbor cache hits.", ioStats.CacheHits)
	writeMetric(w, "ringsampler_io_cache_misses_total", "counter", "Hot-neighbor cache misses.", ioStats.CacheMisses)
	writeMetric(w, "ringsampler_io_cache_bytes_total", "counter", "Bytes served from the hot-neighbor cache.", ioStats.CacheBytes)
	writeMetric(w, "ringsampler_io_feat_reads_total", "counter", "Feature-file ring reads completed in full.", ioStats.FeatReads)
	writeMetric(w, "ringsampler_io_feat_bytes_read_total", "counter", "Feature bytes read from the device.", ioStats.FeatBytesRead)
	writeMetric(w, "ringsampler_io_feat_cache_hits_total", "counter", "Hot-node feature cache hits.", ioStats.FeatCacheHits)
	writeMetric(w, "ringsampler_io_feat_cache_misses_total", "counter", "Hot-node feature cache misses.", ioStats.FeatCacheMisses)
	writeMetric(w, "ringsampler_io_feat_cache_bytes_total", "counter", "Feature bytes served from the cache.", ioStats.FeatCacheBytes)
	writeMetric(w, "ringsampler_io_feat_cache_admitted_total", "counter", "Feature-cache rows admitted by epoch-boundary re-admissions.", ioStats.FeatCacheAdmitted)
	writeMetric(w, "ringsampler_io_feat_cache_evicted_total", "counter", "Feature-cache rows evicted by epoch-boundary re-admissions.", ioStats.FeatCacheEvicted)
	writeMetric(w, "ringsampler_io_worker_user_cpu_nanoseconds_total", "counter", "User-space CPU time of the pinned worker threads.", ioStats.UserCPUNanos)
	writeMetric(w, "ringsampler_io_worker_sys_cpu_nanoseconds_total", "counter", "Kernel CPU time of the pinned worker threads.", ioStats.SysCPUNanos)
}
