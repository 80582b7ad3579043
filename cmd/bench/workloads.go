package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/serve"
	"ringsampler/internal/shard"
	"ringsampler/internal/storage"
	"ringsampler/internal/train"
)

// workload names: later issues cite them verbatim.
const (
	epochHot    = "epoch_hot"
	epochDirect = "epoch_direct"
	trainFeat   = "train_feat"
	serveClosed = "serve_closed"
	serveShard2 = "serve_shard2"
)

// workloadNames lists the workloads in report order. Why each is here —
// the layer it loads, the layers it bypasses — is in README.md and, for
// the ones the driver runs, in BENCHMARK.json.
func workloadNames() []string {
	return []string{epochHot, epochDirect, trainFeat, serveClosed, serveShard2}
}

// batchesOf cuts targets into mini-batches of size, the last one short,
// exactly as the epoch runner does.
func batchesOf(targets []uint32, size int) [][]uint32 {
	var out [][]uint32
	for lo := 0; lo < len(targets); lo += size {
		out = append(out, targets[lo:min(lo+size, len(targets))])
	}
	return out
}

// bench is the state one invocation shares across passes.
type bench struct {
	sc      scale
	data    *dataset
	seed    uint64
	windows int
	workers int // W: sampler workers, max(1, min(4, nproc-1)) — a core stays free
	clients int // closed-loop clients of the serve workloads: 2(W+1)
	outDir  string
	logf    func(string, ...any)

	split []uint32 // trainSplit, computed once
}

func workerCount() int { return max(1, min(4, runtime.NumCPU()-1)) }

// clientCount is how many closed-loop clients load a server with w
// workers. Twice w+1 keeps a request queued behind every one in service:
// with only w+1 the server idled between wake-ups, and on the 2-core box
// the run medians of serve_closed ranged 293k–327k targets/s; saturated
// they held 303k–312k (README.md "Calibration").
func clientCount(w int) int { return 2 * (w + 1) }

func (b *bench) trainSplit() []uint32 {
	if b.split == nil {
		b.split = trainSplit(b.data.Nodes)
	}
	return b.split
}

// windowResult is what one window of fixed work produced.
type windowResult struct {
	targets int
	ops     int // batches, requests or train steps attempted
	failed  int
	seconds float64
	// latMS holds one sample per operation where the harness can see
	// operations complete (requests, batch deliveries), else one sample
	// per window (train: mean step period).
	latMS   []float64
	digests []uint64          // epoch: per-batch sample digests
	fold    uint64            // serve: order-independent fold of (request id, response digest)
	bytes   int64             // serve: response body bytes
	train   *train.EpochStats // train: the trainer's own report
	sampled int64             // sampled neighbor entries, where reported
	io      core.IOStats      // epoch: the window's device counters
}

// runner is one opened workload: everything open() built, ready to run
// windows. open → ready → close is what setup_s times.
type runner interface {
	// window runs fixed-work window i; -1 is the warm-up.
	window(i int, tr *tracer) (windowResult, error)
	// device returns the device bytes read for the timed windows
	// (BytesRead + AlignSlackBytes + FeatBytesRead) and the number of
	// targets they were counted over.
	device() (bytes, targets int64, err error)
	// check runs the workload's correctness checks (never inside a timed
	// window) against window 0's result, counting each as an operation of
	// the report.
	check(w0 windowResult, rep *report)
	close() error
}

func (b *bench) open(name string) (runner, error) {
	switch name {
	case epochHot:
		return b.openEpoch(false, 0, b.sc.hotTargets)
	case epochDirect:
		return b.openEpoch(true, b.data.EdgeBytes/4, b.sc.directTargets)
	case trainFeat:
		return b.openTrain()
	case serveClosed:
		return b.openServe(false)
	case serveShard2:
		return b.openServe(true)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames())
}

// coreConfig is the engine configuration of a workload: the paper's
// defaults with W workers.
func (b *bench) coreConfig(fanouts []int, batch int) core.Config {
	cfg := coreDefaults()
	cfg.Fanouts = fanouts
	cfg.BatchSize = batch
	cfg.Threads = b.workers
	cfg.Seed = b.seed
	return cfg
}

func deviceBytes(io core.IOStats) int64 {
	return io.BytesRead + io.AlignSlackBytes + io.FeatBytesRead
}

// ---------------------------------------------------------------- epoch

type epochRunner struct {
	b      *bench
	ds     *storage.Dataset
	s      *core.Sampler
	cfg    core.Config
	timed  [][]uint32
	warm   []uint32
	io     core.IOStats
	counts int64 // targets io was accumulated over
}

const epochBatch = 512

func (b *bench) openEpoch(direct bool, cacheBytes int64, perWindow int) (runner, error) {
	ds, err := openDataset(b.data.Dir, direct)
	if err != nil {
		return nil, err
	}
	if direct && ds.DirectFallback() != nil {
		ds.Close()
		// Never silently measure the page cache under the O_DIRECT name.
		return nil, fmt.Errorf("O_DIRECT unavailable, refusing to run: %w", ds.DirectFallback())
	}
	cfg := b.coreConfig([]int{20, 15, 10}, epochBatch)
	cfg.CacheBudgetBytes = cacheBytes
	s, err := newSampler(ds, cfg)
	if err != nil {
		ds.Close()
		return nil, err
	}
	// First worker ready: what RunEpochSeeded pays before its first batch.
	w, err := newWorker(s)
	if err != nil {
		ds.Close()
		return nil, err
	}
	w.Close()
	r := &epochRunner{b: b, ds: ds, s: s, cfg: cfg}
	r.timed, r.warm = epochWindows(b.trainSplit(), b.seed, b.windows, perWindow)
	return r, nil
}

func (r *epochRunner) targetsOf(i int) []uint32 {
	if i < 0 {
		return r.warm
	}
	return r.timed[i]
}

func (r *epochRunner) seedOf(i int) uint64 { return mix(r.b.seed, uint64(i+1)) }

func (r *epochRunner) window(i int, _ *tracer) (windowResult, error) {
	targets := r.targetsOf(i)
	batches := (len(targets) + r.cfg.BatchSize - 1) / r.cfg.BatchSize
	res := windowResult{targets: len(targets), ops: batches}
	delivered := make([]time.Time, 0, batches)
	t0 := time.Now()
	st, err := runEpoch(context.Background(), r.s, r.seedOf(i), targets, func(int, *core.Batch) error {
		delivered = append(delivered, time.Now())
		return nil
	})
	res.seconds = time.Since(t0).Seconds()
	if err != nil {
		res.failed = batches
		return res, err
	}
	// One latency sample per delivery: how long the caller waited for W
	// more batches, W being the number sampled concurrently. With one
	// worker that is the gap between consecutive deliveries.
	w := st.Workers
	for k := range delivered {
		prev := t0
		if k >= w {
			prev = delivered[k-w]
		}
		res.latMS = append(res.latMS, float64(delivered[k].Sub(prev).Nanoseconds())/1e6)
	}
	res.digests = st.Digests
	res.sampled = st.Sampled
	res.io = st.IO
	if i >= 0 {
		r.io.Add(st.IO)
		r.counts += int64(len(targets))
	}
	return res, nil
}

func (r *epochRunner) device() (int64, int64, error) { return deviceBytes(r.io), r.counts, nil }

// checkBatches is how many of window 0's batches are recomputed on one
// worker through the single-call reference.
const checkBatches = 8

func (r *epochRunner) check(w0 windowResult, c *report) {
	w, err := newWorker(r.s)
	if err != nil {
		c.expect(false, "check worker: %v", err)
		return
	}
	defer w.Close()
	seed := r.seedOf(0)
	for bi, targets := range batchesOf(r.targetsOf(0), r.cfg.BatchSize) {
		if bi == checkBatches || bi == len(w0.digests) {
			break
		}
		b, err := sampleBatch(w, targets, r.cfg.Fanouts, mix(seed, uint64(bi)), false)
		if err != nil {
			c.expect(false, "reference batch %d: %v", bi, err)
			continue
		}
		c.expect(b.Digest() == w0.digests[bi], "window 0 batch %d digest %016x != single-worker reference %016x", bi, w0.digests[bi], b.Digest())
	}
}

func (r *epochRunner) close() error { return r.ds.Close() }

// ---------------------------------------------------------------- train

type trainRunner struct {
	b       *bench
	ds      *storage.Dataset
	s       *core.Sampler
	cfg     core.Config
	trainer *train.Trainer
	targets []uint32
}

var trainFanouts = []int{10, 10}

func (b *bench) trainModelConfig() train.Config {
	return train.Config{FeatureDim: featureDim, Hidden: 16, Classes: numClasses, Layers: 2, LR: 0.05, Seed: b.seed}
}

func (b *bench) trainCoreConfig() core.Config {
	cfg := b.coreConfig(trainFanouts, epochBatch)
	cfg.FetchFeatures = true
	cfg.FeatureCacheBudgetBytes = b.data.FeatBytes / 4
	return cfg
}

func (b *bench) openTrain() (runner, error) {
	ds, err := openDataset(b.data.Dir, false)
	if err != nil {
		return nil, err
	}
	cfg := b.trainCoreConfig()
	s, err := newSampler(ds, cfg)
	if err != nil {
		ds.Close()
		return nil, err
	}
	labels, err := ds.Labels()
	if err != nil {
		ds.Close()
		return nil, err
	}
	m, err := newModel(b.trainModelConfig())
	if err != nil {
		ds.Close()
		return nil, err
	}
	w, err := newWorker(s)
	if err != nil {
		ds.Close()
		return nil, err
	}
	w.Close()
	// Every window trains one epoch over the same targets (the split
	// repeated to the window size, in seeded order) under a fresh epoch
	// seed, the way a training run revisits its train set.
	timed, _ := epochWindows(b.trainSplit(), b.seed, 1, b.sc.trainTargets)
	return &trainRunner{b: b, ds: ds, s: s, cfg: cfg, trainer: &train.Trainer{Model: m, Labels: labels}, targets: timed[0]}, nil
}

func (r *trainRunner) window(i int, _ *tracer) (windowResult, error) {
	res := windowResult{targets: len(r.targets), ops: (len(r.targets) + r.cfg.BatchSize - 1) / r.cfg.BatchSize}
	t0 := time.Now()
	st, err := trainEpoch(context.Background(), r.trainer, r.s, r.targets, i+1)
	res.seconds = time.Since(t0).Seconds()
	if err != nil {
		res.failed = res.ops
		return res, err
	}
	res.train = st
	res.sampled = st.Sampled
	// The trainer owns the batch handler, so single steps are not visible
	// from outside: the window's mean step period stands in.
	res.latMS = []float64{res.seconds / float64(res.ops) * 1e3}
	return res, nil
}

// device replays timed window 0's epoch through the sampler alone —
// same targets, same epoch seed, hence the same reads — because the
// trainer's report carries no I/O counters.
func (r *trainRunner) device() (int64, int64, error) {
	st, err := runEpoch(context.Background(), r.s, trainEpochSeed(r.cfg.Seed, 1), r.targets, nil)
	if err != nil {
		return 0, 0, err
	}
	return deviceBytes(st.IO), int64(len(r.targets)), nil
}

// check trains a 4-batch epoch twice from identical fresh weights, once
// through the overlapped pipeline and once through the serialized
// reference, and expects bit-identical weights.
func (r *trainRunner) check(_ windowResult, c *report) {
	targets := r.targets[:min(4*r.cfg.BatchSize, len(r.targets))]
	var digests [2]string
	for k, epoch := range []func(context.Context, *train.Trainer, *core.Sampler, []uint32, int) (*train.EpochStats, error){trainEpoch, trainEpochSerialized} {
		m, err := newModel(r.b.trainModelConfig())
		if err != nil {
			c.expect(false, "check model: %v", err)
			return
		}
		st, err := epoch(context.Background(), &train.Trainer{Model: m, Labels: r.trainer.Labels}, r.s, targets, 0)
		if err != nil {
			c.expect(false, "check epoch: %v", err)
			return
		}
		digests[k] = st.WeightsDigest
	}
	c.expect(digests[0] == digests[1], "overlapped weights %s != serialized %s after a 4-batch epoch", digests[0], digests[1])
}

func (r *trainRunner) close() error { return r.ds.Close() }

// ---------------------------------------------------------------- serve

type serveRunner struct {
	b       *bench
	sharded bool
	dss     []*storage.Dataset
	srv     server
	served  chan error
	url     string
	clients []*http.Client
	perWin  int
	// newSeconds is what building the front end took (serve.New, or the
	// shard engines plus serve.NewRouter), without opening the datasets.
	newSeconds float64
	io0        core.IOStats
	counts     int64
}

const serveChunk = 256 // Core.BatchSize: one request is exactly one chunk

func (b *bench) serveConfig(cacheBytes int64) serve.Config {
	cfg := serveDefaults()
	cfg.Core = b.coreConfig(serveFanouts, serveChunk)
	cfg.Core.CacheBudgetBytes = cacheBytes
	return cfg
}

// openServer builds the front end of a serve workload: serve.Server over
// the whole graph, or serve.NewRouter over one shard.Local per shard. It
// also returns how long the construction took once the datasets were
// open.
func (b *bench) openServer(sharded bool) (server, []*storage.Dataset, float64, error) {
	dirs, budget := []string{b.data.Dir}, b.data.EdgeBytes/4
	if sharded {
		dirs, budget = b.data.ShardDirs, budget/numShards
	}
	dss, err := openDatasets(dirs)
	if err != nil {
		return nil, nil, 0, err
	}
	fail := func(err error) (server, []*storage.Dataset, float64, error) {
		for _, ds := range dss {
			ds.Close()
		}
		return nil, nil, 0, err
	}
	cfg := b.serveConfig(budget)
	t0 := time.Now()
	if !sharded {
		srv, err := newServer(dss[0], cfg)
		if err != nil {
			return fail(err)
		}
		return srv, dss, since(t0), nil
	}
	engines, err := openEngines(dss, cfg.Core, nil)
	if err != nil {
		return fail(err)
	}
	srv, err := newRouterServer(engines, cfg)
	if err != nil {
		for _, e := range engines {
			e.Close()
		}
		return fail(err)
	}
	return srv, dss, since(t0), nil
}

// openEngines builds one in-process shard engine per dataset, each
// leasing its own workers; wrap, when set, decorates every engine.
func openEngines(dss []*storage.Dataset, cfg core.Config, wrap func(shard.Engine) shard.Engine) ([]shard.Engine, error) {
	cfg.Threads = 1
	var engines []shard.Engine
	for _, ds := range dss {
		local, err := newLocal(ds, cfg)
		if err != nil {
			for _, e := range engines {
				e.Close()
			}
			return nil, err
		}
		var e shard.Engine = local
		if wrap != nil {
			e = wrap(e)
		}
		engines = append(engines, e)
	}
	return engines, nil
}

// openDatasets opens every directory buffered, or none.
func openDatasets(dirs []string) ([]*storage.Dataset, error) {
	var dss []*storage.Dataset
	for _, dir := range dirs {
		ds, err := openDataset(dir, false)
		if err != nil {
			for _, d := range dss {
				d.Close()
			}
			return nil, err
		}
		dss = append(dss, ds)
	}
	return dss, nil
}

func (b *bench) openServe(sharded bool) (runner, error) {
	r := &serveRunner{b: b, sharded: sharded, perWin: b.sc.serveRequests}
	if sharded {
		r.perWin = b.sc.shardRequests
	}
	var err error
	r.srv, r.dss, r.newSeconds, err = b.openServer(sharded)
	if err != nil {
		return nil, err
	}
	r.url, r.served, err = listen(r.srv)
	if err != nil {
		r.close()
		return nil, err
	}
	r.clients = newClients(b.clients)
	// First worker ready: the server answers its health check.
	resp, err := r.clients[0].Get(r.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// listen serves srv on a loopback port and returns its base URL.
func listen(srv server) (string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), served, nil
}

// newClients returns one keep-alive client (one connection) per
// closed-loop client.
func newClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}, Timeout: 30 * time.Second}
	}
	return cs
}

// reply is what a client keeps of one response.
type reply struct {
	status int
	digest uint64 // the response-level digest; ok reports whether one was found
	ok     bool
	bytes  int
	ms     float64
}

// post sends one request and reads the whole response. buf is the
// client's reusable body buffer.
func post(c *http.Client, url string, rq *request, buf *bytes.Buffer) (reply, error) {
	t0 := time.Now()
	resp, err := c.Post(url+"/v1/sample", "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rp := reply{status: resp.StatusCode, bytes: buf.Len(), ms: float64(time.Since(t0).Nanoseconds()) / 1e6}
	if err != nil {
		return rp, err
	}
	rp.digest, rp.ok = tailDigest(buf.Bytes())
	return rp, nil
}

// tailDigest returns the response-level digest, which the server writes
// after the batches: the last "digest" field of the body.
func tailDigest(body []byte) (uint64, bool) {
	const key = `"digest":"`
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 || i+len(key)+16 > len(body) {
		return 0, false
	}
	v, err := strconv.ParseUint(string(body[i+len(key):i+len(key)+16]), 16, 64)
	return v, err == nil
}

// runClients drives the closed loop: every client sends its requests
// one after another, the next as soon as the previous one is answered.
// It returns once all clients are done.
func runClients(clients []*http.Client, url string, streams [][]request, tr *tracer, each func(client int, rq *request, rp reply, err error)) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range streams[ci] {
				rq := &streams[ci][i]
				id := tr.begin("request", -1, rq.id)
				rp, err := post(clients[ci], url, rq, &buf)
				tr.end(id, map[string]int64{"status": int64(rp.status), "response_bytes": int64(rp.bytes), "targets": int64(len(rq.targets))})
				each(ci, rq, rp, err)
			}
		}(ci)
	}
	wg.Wait()
	return time.Since(t0)
}

func (r *serveRunner) streams(window, n int) [][]request {
	streams := make([][]request, len(r.clients))
	for ci := range streams {
		streams[ci] = clientRequests(r.b.data.Nodes, r.b.seed, window, ci, len(r.clients), n)
	}
	return streams
}

// settle lets the worker pool publish the counters of its last
// micro-batch before they are read.
func settle() { time.Sleep(5 * time.Millisecond) }

func (r *serveRunner) window(i int, tr *tracer) (windowResult, error) {
	streams := r.streams(i, r.perWin)
	if i == 0 {
		settle()
		r.io0 = r.srv.IOStats()
	}
	res := windowResult{}
	var mu sync.Mutex
	var firstErr error
	perClient := make([][]float64, len(r.clients))
	elapsed := runClients(r.clients, r.url, streams, tr, func(ci int, rq *request, rp reply, err error) {
		perClient[ci] = append(perClient[ci], rp.ms)
		mu.Lock()
		defer mu.Unlock()
		res.ops++
		res.bytes += int64(rp.bytes)
		if err != nil || rp.status != http.StatusOK || !rp.ok {
			res.failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("request %d: status %d, err %v", rq.id, rp.status, err)
			}
			return
		}
		res.targets += len(rq.targets)
		res.fold ^= mix(uint64(rq.id), rp.digest)
	})
	res.seconds = elapsed.Seconds()
	for _, l := range perClient {
		res.latMS = append(res.latMS, l...)
	}
	if i >= 0 {
		r.counts += int64(res.targets)
	}
	return res, firstErr
}

func (r *serveRunner) device() (int64, int64, error) {
	settle()
	io := r.srv.IOStats()
	return deviceBytes(io) - deviceBytes(r.io0), r.counts, nil
}

// checkDirect is how many responses are compared with digests computed
// by calling core directly.
const checkDirect = 32

// check sends the check stream (window -2) and compares every response
// digest with (a) for the first 32 requests, the digest of the same
// batch sampled by one worker called directly, and (b) on serve_shard2,
// the response a single-node serve.Server gives to the same request.
func (r *serveRunner) check(_ windowResult, c *report) {
	n := checkDirect
	if r.sharded {
		n = max(n, r.b.sc.checkRequests)
	}
	streams := r.streams(-2, n)
	got := make(map[int]uint64)
	var mu sync.Mutex
	collect := func(into map[int]uint64) func(int, *request, reply, error) {
		return func(_ int, rq *request, rp reply, err error) {
			mu.Lock()
			defer mu.Unlock()
			if err == nil && rp.status == http.StatusOK && rp.ok {
				into[rq.id] = rp.digest
			}
		}
	}
	runClients(r.clients, r.url, streams, nil, collect(got))

	ds, err := openDataset(r.b.data.Dir, false)
	if err != nil {
		c.expect(false, "check dataset: %v", err)
		return
	}
	defer ds.Close()
	s, err := newSampler(ds, r.b.coreConfig(serveFanouts, serveChunk))
	if err != nil {
		c.expect(false, "check sampler: %v", err)
		return
	}
	w, err := newWorker(s)
	if err != nil {
		c.expect(false, "check worker: %v", err)
		return
	}
	defer w.Close()
	for ci := range streams {
		for i := 0; i < checkDirect/len(streams)+1 && i < len(streams[ci]); i++ {
			rq := &streams[ci][i]
			// One request is one chunk, and chunk 0 samples under
			// Mix(seed, 0); a one-batch response's digest is the batch's.
			b, err := sampleBatch(w, rq.targets, serveFanouts, mix(rq.seed, 0), rq.features)
			if err != nil {
				c.expect(false, "reference request %d: %v", rq.id, err)
				continue
			}
			d, ok := got[rq.id]
			c.expect(ok && d == b.Digest(), "request %d response digest %016x != direct core digest %016x", rq.id, d, b.Digest())
		}
	}
	if !r.sharded {
		return
	}
	single, dss, _, err := r.b.openServer(false)
	if err != nil {
		c.expect(false, "single-node server: %v", err)
		return
	}
	defer dss[0].Close()
	url, served, err := listen(single)
	if err != nil {
		c.expect(false, "single-node listen: %v", err)
		return
	}
	want := make(map[int]uint64)
	runClients(r.clients, url, streams, nil, collect(want))
	shutdown(single)
	<-served
	for ci := range streams {
		for i := range streams[ci] {
			id := streams[ci][i].id
			d, ok := got[id]
			c.expect(ok && d == want[id], "request %d: sharded digest %016x != single-node digest %016x", id, d, want[id])
		}
	}
}

func (r *serveRunner) close() error {
	var err error
	if r.srv != nil {
		err = shutdown(r.srv)
		if r.served != nil {
			<-r.served
		}
	}
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	for _, ds := range r.dss {
		ds.Close()
	}
	return err
}
