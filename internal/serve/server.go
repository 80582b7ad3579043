// Package serve is the online sampling service in front of the core
// engine: a long-running HTTP server whose handlers cut requests into
// the mini-batch chunks the per-thread ring workers are built for
// (paper Fig 3a) and admit them, through a bounded queue, straight to
// a core.Pool of workers, each locked to an OS thread per job. The pool
// owns the workers — thread locking, CPU accounting, retirement of
// broken ones; this package owns what sits in front of it: admission,
// 429 fast-fail, deadlines, the fan-in of a request's jobs, and the
// metrics.
//
// The shape follows what DiskGNN and Jiang et al. argue for disk-based
// GNN serving: a single admission layer in front of a fixed worker
// pool, never a worker per connection — uncoordinated concurrent
// samplers destroy disk throughput, and a bounded queue that fast-fails
// beats one that queues unboundedly.
//
//	POST /v1/sample  — {"targets":[...],"fanouts":[...],"seed":N} → layered samples
//	GET  /healthz    — liveness (503 while draining)
//	GET  /metrics    — Prometheus text: queue depth, per-stage latency,
//	                   ring IOStats, rejection counts
//
// NewRouter builds the same Server over in-process shard engines
// instead: admitted chunks fan out through a shard.Router rather than
// the pool (DESIGN.md §12). A server never opens on a shard dataset.
//
// There is one sampling strategy (DESIGN.md §11). The optional
// "strategy" field may only name it ("uniform", or empty); any other
// name is refused 400 at admission, before any work is queued, rather
// than answered with uniform samples.
//
// Determinism contract: the response to (targets, fanouts, seed) is
// byte-identical to a direct single-threaded core run —
// the request is sharded into Core.BatchSize chunks and chunk i is
// sampled with RNG seed sample.Mix(seed, i), exactly how
// core.RunEpochSeeded seeds its mini-batches — regardless of which pooled
// worker (or which shards) ran them.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/sample"
	"ringsampler/internal/shard"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// maxBodyBytes bounds how much request JSON a client can make the
// server buffer.
const maxBodyBytes = 8 << 20

// Request limits. They bound what one request can make the pool do —
// targets (a request is at most maxChunks Core.BatchSize chunks), fanout
// shape (the frontier explosion guard) — and how long it may take.
const (
	maxChunks       = 4
	maxFanoutLayers = 8
	maxFanout       = 256
	// defaultTimeout is the deadline of a request that sets no
	// timeout_ms; maxTimeout caps timeout_ms.
	defaultTimeout = 10 * time.Second
	maxTimeout     = 60 * time.Second
)

// MaxQueueDepth bounds Config.QueueDepth, which sizes the admission
// queue's channel when the server starts; zero selects the default.
const (
	MaxQueueDepth     = 1 << 16
	defaultQueueDepth = 256
)

// Config controls the serving layer: Core carries the engine config
// (Core.Threads is the worker-pool size, Core.BatchSize the chunking
// granularity of the determinism contract). The ring backend is probed
// (uring.Auto), not configured.
type Config struct {
	// Core is the engine configuration behind the pool.
	Core core.Config
	// QueueDepth bounds the admission queue in jobs (chunks). A full
	// queue fast-fails new requests with 429 instead of queuing
	// unboundedly. Zero selects defaultQueueDepth.
	QueueDepth int
}

// DefaultConfig returns the serving defaults over the engine defaults.
func DefaultConfig() Config {
	return Config{Core: core.DefaultConfig(), QueueDepth: defaultQueueDepth}
}

// resolve fills the defaults in and validates what the engine does not.
func (c *Config) resolve() error {
	if c.QueueDepth == 0 {
		c.QueueDepth = defaultQueueDepth
	}
	if c.QueueDepth < 1 || c.QueueDepth > MaxQueueDepth {
		return fmt.Errorf("serve: queue depth %d must be in [1,%d]", c.QueueDepth, MaxQueueDepth)
	}
	if c.Core.BatchSize < 1 {
		return fmt.Errorf("serve: batch size %d must be positive", c.Core.BatchSize)
	}
	return nil
}

// Server is the running service: one HTTP front end over either a
// worker pool on one dataset (New) or a shard router (NewRouter).
// Serve with Serve, stop with Shutdown.
type Server struct {
	cfg Config
	met *metrics

	// Pooled mode: admitted jobs wait in queue for the pool's slots.
	ds      *storage.Dataset
	sampler *core.Sampler
	queue   chan core.Job
	pool    *core.Pool
	// Router mode: admitted chunks fan out to the shard engines.
	rt *shard.Router

	http     *http.Server
	draining atomic.Bool
	// handlers tracks in-flight HTTP handlers and the router chunks
	// they start. Shutdown waits on it before closing the queue, so no
	// handler can still send on it.
	handlers sync.WaitGroup
	// baseCtx force-cancels every in-flight request when a drain
	// deadline expires.
	baseCtx    context.Context
	cancelBase context.CancelFunc
	shutOnce   sync.Once
	shutErr    error
}

// New validates the config, builds the sampler (hot cache included when
// budgeted), and starts the worker pool. The server is live once Serve
// is called on a listener. A shard dataset is refused: it holds only
// its own nodes' edges, so whole-graph sampling on it would silently
// miss the rest.
func New(ds *storage.Dataset, cfg Config) (*Server, error) {
	if ds.IsSharded() {
		return nil, fmt.Errorf("serve: dataset is shard %d/%d of a partition; serve the unpartitioned dataset",
			ds.ShardIndex(), ds.NumShards())
	}
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	sampler, err := core.New(ds, cfg.Core, uring.Auto())
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, met: newMetrics(), ds: ds, sampler: sampler, queue: make(chan core.Job, cfg.QueueDepth)}
	s.pool = sampler.NewPool(cfg.Core.Threads, s.queue)
	s.initHTTP()
	return s, nil
}

// NewRouter validates that the engines tile the graph (shard.NewRouter
// does the partition checks) and returns the scatter/gather front end
// of a partition: the same /v1/sample API, answered by fanning each
// chunk's layers out to the shard engines. Responses are
// byte-identical — digest included — to a single-node Server over the
// unpartitioned dataset (DESIGN.md §12).
// Queue depth and pool size do not apply (their metrics read zero).
// The engines are owned by the server from here on: Shutdown closes
// them.
func NewRouter(engines []shard.Engine, cfg Config) (*Server, error) {
	if len(cfg.Core.Fanouts) == 0 {
		cfg.Core.Fanouts = core.DefaultConfig().Fanouts
	}
	if cfg.Core.BatchSize == 0 {
		cfg.Core.BatchSize = core.DefaultConfig().BatchSize
	}
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	rt, err := shard.NewRouter(engines)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, met: newMetrics(), rt: rt}
	s.initHTTP()
	return s, nil
}

// initHTTP wires the HTTP front end both modes share.
func (s *Server) initHTTP() {
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sample", s.handleSample)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.http = &http.Server{Handler: mux}
}

// Config returns the server's effective (default-filled) config.
func (s *Server) Config() Config { return s.cfg }

// IOStats returns the merged ring-level I/O counters: the pool's
// workers, retired ones included, or the sum over the router's engines.
func (s *Server) IOStats() core.IOStats {
	if s.rt != nil {
		return s.rt.Stats()
	}
	return s.pool.Stats()
}

// CacheInfo returns what the sampler's caches pin: the neighbor cache's
// lists and their bytes, and the feature cache's rows and their bytes.
// All are zero for a cache that is off, and in router mode, whose caches
// live in the shard engines.
func (s *Server) CacheInfo() (lists int, listBytes int64, rows int, rowBytes int64) {
	if s.sampler == nil {
		return 0, 0, 0, 0
	}
	lists, listBytes = s.sampler.CacheInfo()
	rows, rowBytes = s.sampler.FeatureCacheInfo()
	return lists, listBytes, rows, rowBytes
}

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error { return s.http.Serve(ln) }

// Shutdown drains gracefully: stop admitting, let in-flight requests
// finish through the pipeline, then stop the pool (or close the shard
// engines). When ctx expires first, outstanding requests are
// force-canceled and connections closed — workers still never die
// mid-job. Safe to call once; later calls return the first result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.draining.Store(true)
		// Drain HTTP first: Shutdown waits for active handlers, and every
		// handler waits for its jobs, so the queue empties through the
		// workers before the pipeline is stopped.
		err := s.http.Shutdown(ctx)
		if err != nil {
			// Deadline expired mid-drain: cancel every in-flight request
			// (handlers unblock via their contexts) and force connections
			// closed.
			s.cancelBase()
			s.http.Close()
		}
		// Every handler that could enqueue did handlers.Add before its
		// draining check; once Wait returns, nothing can send on the
		// queue, so closing it is safe. The slots run or skip (dead
		// contexts) whatever is left, so queue_depth returns to zero.
		s.handlers.Wait()
		if s.pool != nil {
			close(s.queue)
			s.pool.Close()
		} else if cerr := s.rt.Close(); err == nil {
			err = cerr
		}
		s.cancelBase()
		s.shutErr = err
	})
	return s.shutErr
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	workers, retired := 0, int64(0)
	if s.pool != nil {
		workers, retired = s.cfg.Core.Threads, s.pool.Retired()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var pins cacheInfo
	pins.lists, pins.listBytes, pins.rows, pins.rowBytes = s.CacheInfo()
	s.met.write(w, s.IOStats(), pins, workers, retired, cap(s.queue))
}

// sampleRequest is the POST /v1/sample body.
type sampleRequest struct {
	// Targets are the nodes to sample neighborhoods for.
	Targets []uint32 `json:"targets"`
	// Fanouts are the per-layer sample counts, outermost first; empty
	// uses the server's configured fanouts.
	Fanouts []int `json:"fanouts,omitempty"`
	// Seed drives the request's sampling randomness; equal requests
	// with equal seeds get byte-identical responses.
	Seed uint64 `json:"seed"`
	// Strategy may only name the one strategy ("uniform", or empty).
	// It stays in the body so that a request naming any other strategy
	// is refused 400 instead of silently sampled uniformly.
	Strategy string `json:"strategy,omitempty"`
	// Features runs the feature stage per batch: each response batch
	// carries the deduplicated node union and its raw f32 feature
	// vectors (base64 in JSON). Also settable via the ?features=true
	// query parameter. Requires a dataset with a feature file (400
	// otherwise).
	Features bool `json:"features,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline
	// (capped at maxTimeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type layerJSON struct {
	Targets   []uint32 `json:"targets"`
	Starts    []int64  `json:"starts"`
	Neighbors []uint32 `json:"neighbors"`
}

type batchJSON struct {
	Layers []layerJSON `json:"layers"`
	// Feature payload (present only when the request asked for
	// features): the batch's deduplicated node union, the per-node
	// vector width, and the raw little-endian f32 vectors back to back
	// in FeatNodes order — []byte, so encoding/json renders base64.
	FeatNodes  []uint32 `json:"feat_nodes,omitempty"`
	FeatureDim int      `json:"feature_dim,omitempty"`
	Features   []byte   `json:"features,omitempty"`
	Digest     string   `json:"digest"`
}

// sampleResponse is the POST /v1/sample reply: one batch per
// Core.BatchSize chunk of the request's targets (a request at or under
// the chunk size gets exactly one).
type sampleResponse struct {
	Batches []batchJSON `json:"batches"`
	// Digest folds the per-batch digests (FNV-style), hex-encoded —
	// uint64s don't survive JSON number precision.
	Digest    string  `json:"digest"`
	Sampled   int64   `json:"sampled_entries"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.met.badRequests.Add(1)
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: msg})
}

// checkTargets validates every target against the graph's node count.
// The comparison is deliberately 64-bit: narrowing NumNodes to uint32
// first would make a manifest with ≥ 2^32 nodes wrap, and targets
// would be accepted or rejected against the count's low 32 bits.
func checkTargets(targets []uint32, numNodes int64) error {
	for i, v := range targets {
		if int64(v) >= numNodes {
			return fmt.Errorf("target[%d] = %d out of range (graph has %d nodes)", i, v, numNodes)
		}
	}
	return nil
}

// validateSample is the admission validation of a sample request. It
// resolves the ?features query
// flag into req, and returns the effective fanouts and per-request
// timeout — or the message for a 400.
func (c *Config) validateSample(r *http.Request, req *sampleRequest, numNodes int64, hasFeatures bool) ([]int, time.Duration, error) {
	if len(req.Targets) == 0 {
		return nil, 0, fmt.Errorf("request needs at least one target")
	}
	// Counted in chunks: maxChunks × BatchSize wraps for a BatchSize
	// near MaxInt.
	if (len(req.Targets)-1)/c.Core.BatchSize >= maxChunks {
		return nil, 0, fmt.Errorf("request has %d targets, limit %d chunks of %d", len(req.Targets), maxChunks, c.Core.BatchSize)
	}
	if err := checkTargets(req.Targets, numNodes); err != nil {
		return nil, 0, err
	}
	if q := r.URL.Query().Get("features"); q != "" {
		on, err := strconv.ParseBool(q)
		if err != nil {
			return nil, 0, fmt.Errorf("features query parameter must be a boolean: %v", err)
		}
		req.Features = req.Features || on
	}
	if req.Features && !hasFeatures {
		return nil, 0, fmt.Errorf("features requested but the dataset has no feature file")
	}
	fanouts := req.Fanouts
	if len(fanouts) == 0 {
		fanouts = c.Core.Fanouts
	}
	if len(fanouts) > maxFanoutLayers {
		return nil, 0, fmt.Errorf("%d fanout layers, limit %d", len(fanouts), maxFanoutLayers)
	}
	for i, f := range fanouts {
		if f < 1 || f > maxFanout {
			return nil, 0, fmt.Errorf("fanout[%d] = %d out of range [1,%d]", i, f, maxFanout)
		}
	}
	if err := core.CheckStrategy(req.Strategy); err != nil {
		return nil, 0, err
	}
	if req.TimeoutMS < 0 {
		// A negative timeout is a client bug, not a request for the
		// default — rejecting beats silently substituting one.
		return nil, 0, fmt.Errorf("timeout_ms %d must be non-negative", req.TimeoutMS)
	}
	timeout := defaultTimeout
	if req.TimeoutMS > 0 {
		// Capped in milliseconds: converting first would overflow
		// time.Duration and wrap a huge timeout_ms to a tiny deadline.
		timeout = time.Duration(min(req.TimeoutMS, maxTimeout.Milliseconds())) * time.Millisecond
	}
	return fanouts, timeout, nil
}

// buildResponse assembles the wire response from ordered batches, in
// pooled and router mode alike — which is what keeps the two response
// formats (and digests) identical by construction.
func buildResponse(batches []*core.Batch, t0 time.Time) sampleResponse {
	resp := sampleResponse{Batches: make([]batchJSON, len(batches))}
	var folded uint64
	for i, b := range batches {
		bj := batchJSON{Layers: make([]layerJSON, len(b.Layers))}
		for li := range b.Layers {
			l := &b.Layers[li]
			bj.Layers[li] = layerJSON{Targets: l.Targets, Starts: l.Starts, Neighbors: l.Neighbors}
		}
		if b.FeatureDim > 0 {
			bj.FeatNodes = b.FeatNodes
			bj.FeatureDim = b.FeatureDim
			bj.Features = b.Features
		}
		d := b.Digest()
		bj.Digest = fmt.Sprintf("%016x", d)
		folded = folded*0x100000001b3 ^ d
		resp.Sampled += b.TotalSampled()
		resp.Batches[i] = bj
	}
	resp.Digest = fmt.Sprintf("%016x", folded)
	resp.ElapsedMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	return resp
}

// enter counts a work-carrying handler in and refuses it while
// draining; every caller defers leave. The handlers.Add comes before
// the draining check, so a handler that passes it is one Shutdown
// waits for before closing the queue.
func (s *Server) enter(w http.ResponseWriter) bool {
	s.handlers.Add(1)
	s.met.inflight.Add(1)
	if s.draining.Load() {
		s.met.rejectedDraining.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server draining"})
		return false
	}
	return true
}

func (s *Server) leave() {
	s.met.inflight.Add(-1)
	s.handlers.Done()
}

// decode reads the JSON request body into v, answering 413 when it
// runs past maxBodyBytes and 400 when it is malformed.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		s.met.badRequests.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooBig.Limit)})
		return false
	}
	if err != nil {
		s.badRequest(w, "malformed JSON: "+err.Error())
		return false
	}
	return true
}

// await runs one request of n jobs: it bounds the call by timeout and by
// a forced drain, lets admit start the jobs under a context the first
// failing job cancels, and waits for them all. It answers every
// failure itself — 429 when admit finds the queue full, 504/503 for a
// dead context, 500 naming what failed — and returns the finished
// request only on success.
func (s *Server) await(w http.ResponseWriter, r *http.Request, timeout time.Duration, n int, admit func(ctx context.Context, rq *request) bool) *request {
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()
	// Jobs carry a child of the call's context: the first failing job
	// cancels it (request.jobDone), so its siblings are skipped — while
	// this call keeps waiting on rq.done and reports the real error, not
	// its own cancellation.
	jobCtx, jobCancel := context.WithCancel(ctx)
	defer jobCancel()
	rq := newRequest(n, jobCancel)
	if !admit(jobCtx, rq) {
		// Admission control: the bounded queue is full — fast-fail rather
		// than queue unboundedly. The deferred cancels make the slots skip
		// the jobs already admitted.
		s.met.rejectedFull.Add(1)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "sampling queue full, retry later"})
		return nil
	}
	select {
	case <-rq.done:
	case <-ctx.Done():
		s.failCanceled(w, ctx)
		return nil
	}
	if err := rq.err; err != nil {
		// Jobs can also surface the call's own cancellation.
		if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.failCanceled(w, ctx)
			return nil
		}
		s.met.sampleErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "sampling failed: " + err.Error()})
		return nil
	}
	return rq
}

// enqueue admits one sample chunk as a job that runs fn on a pool
// worker and reports to rq once the pool has published its counters;
// false when the bounded queue is full.
func (s *Server) enqueue(ctx context.Context, rq *request, fn func(*core.Worker) error) bool {
	enq := time.Now()
	picked := false // set and read on the slot's goroutine
	job := core.Job{
		Run: func(w *core.Worker) error {
			picked = true
			s.met.queueDepth.Add(-1)
			if err := ctx.Err(); err != nil {
				// The request already died (deadline, client gone, forced
				// drain, or a failed sibling job) — don't burn device time
				// on it.
				s.met.canceledJobs.Add(1)
				return err
			}
			s.met.queueWait.Observe(time.Since(enq).Nanoseconds())
			t0 := time.Now()
			err := fn(w)
			s.met.sampleLat.Observe(time.Since(t0).Nanoseconds())
			return err
		},
		Done: func(err error) {
			if !picked {
				// The slot had no worker to run it on (core.ErrNoWorker).
				s.met.queueDepth.Add(-1)
			}
			rq.jobDone(err)
		},
	}
	// Count the job before a slot can take it: a slot that ran its
	// Add(-1) first would let a scrape read a negative depth.
	s.met.queueDepth.Add(1)
	select {
	case s.queue <- job:
		return true
	default:
		s.met.queueDepth.Add(-1)
		return false
	}
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	defer s.leave()
	if !s.enter(w) {
		return
	}
	var numNodes int64
	var hasFeatures bool
	if s.rt != nil {
		numNodes, hasFeatures = s.rt.NumNodes(), s.rt.HasFeatures()
	} else {
		numNodes, hasFeatures = s.ds.NumNodes(), s.ds.HasFeatures()
	}
	var req sampleRequest
	if !s.decode(w, r, &req) {
		return
	}
	fanouts, timeout, verr := s.cfg.validateSample(r, &req, numNodes, hasFeatures)
	if verr != nil {
		s.badRequest(w, verr.Error())
		return
	}
	t0 := time.Now()
	s.met.requests.Add(1)
	if req.Features {
		s.met.featureRequests.Add(1)
	}

	// Shard into the engine's mini-batch granularity. Chunk i samples
	// under sample.Mix(seed, i) — the same derivation core.RunEpochSeeded
	// uses per batch — which is what makes the response independent of
	// worker identity, pool size and sharding.
	chunkSize := s.cfg.Core.BatchSize
	numChunks := (len(req.Targets)-1)/chunkSize + 1 // validateSample refused an empty request
	rq := s.await(w, r, timeout, numChunks, func(ctx context.Context, rq *request) bool {
		for ci := 0; ci < numChunks; ci++ {
			targets := req.Targets[ci*chunkSize : min((ci+1)*chunkSize, len(req.Targets))]
			seed := sample.Mix(req.Seed, uint64(ci))
			if s.rt != nil {
				// Chunks are independent whole pipelines: fan them out
				// concurrently, each scattering its layers to the shards.
				s.handlers.Add(1)
				go func() {
					defer s.handlers.Done()
					var err error
					rq.batches[ci], err = s.rt.SampleChunk(ctx, targets, fanouts, seed, "", req.Features)
					rq.jobDone(err)
				}()
				continue
			}
			opts := core.BatchOpts{Fanouts: fanouts, Seed: seed, Features: req.Features}
			if !s.enqueue(ctx, rq, func(w *core.Worker) (err error) {
				rq.batches[ci], err = w.SampleBatchOpts(targets, opts)
				return err
			}) {
				return false
			}
		}
		return true
	})
	if rq == nil {
		return
	}
	resp := buildResponse(rq.batches, t0)
	s.met.responsesOK.Add(1)
	s.met.requestLat.Observe(time.Since(t0).Nanoseconds())
	writeJSON(w, http.StatusOK, resp)
}

// failCanceled maps a dead request context to its status: 504 for a
// deadline, 503 for everything else (client gone, forced drain).
func (s *Server) failCanceled(w http.ResponseWriter, ctx context.Context) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.met.deadlineExceeded.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "deadline exceeded"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "request canceled"})
}
