package main

// The traced pass. End-to-end numbers never come from here: this pass
// runs the layer probes (probes.go), then a few windows of the workload
// untraced and the same windows again step by step from this package —
// per batch Worker.SampleLayer → NextFrontierFor → Worker.FetchFeatures,
// per request the HTTP round trip with /metrics read before and after,
// per train step Model.Step — keeping one span per call in memory. The
// two executions must agree on every digest and every exact count.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/shard"
	"ringsampler/internal/storage"
	"ringsampler/internal/train"
)

// tracedWindows is how many of the workload's windows the traced pass
// replays.
const tracedWindows = 2

// probeEvery: the two probes that do work the batch itself does not (a
// feature fetch on workloads without features, a third layer on
// two-layer workloads) run on every probeEvery-th batch only, because
// each costs about as much as the batch.
const probeEvery = 16

func (b *bench) runTraced(name string, env environment) (*report, error) {
	rep := &report{Workload: name, Trace: 1, Env: env, Comparable: env.Backend == "io_uring", Windows: tracedWindows,
		Metrics: map[string]value{}}
	tr := newTracer(name)
	if err := b.probeGen(rep); err != nil {
		return nil, fmt.Errorf("gen probe: %w", err)
	}
	ds, dds, err := b.probeStorage(rep)
	if err != nil {
		return nil, fmt.Errorf("storage probe: %w", err)
	}
	defer ds.Close()
	defer dds.Close()
	if err := b.probeUring(rep, ds, dds); err != nil {
		return nil, fmt.Errorf("uring probe: %w", err)
	}
	if err := b.probeCache(rep, ds); err != nil {
		return nil, fmt.Errorf("cache probe: %w", err)
	}
	if err := b.probeSample(rep, ds); err != nil {
		return nil, fmt.Errorf("sample probe: %w", err)
	}
	if err := b.probeShard(rep, tr); err != nil {
		return nil, fmt.Errorf("shard probe: %w", err)
	}
	switch name {
	case epochHot, epochDirect:
		err = b.traceEpoch(name, rep, tr)
	case trainFeat:
		err = b.traceTrain(rep, tr)
	case serveClosed, serveShard2:
		err = b.traceServe(name, rep, tr)
	default:
		err = fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames())
	}
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", name, err)
	}
	if name != serveClosed && name != serveShard2 {
		if err := b.probeServe(rep, tr); err != nil {
			return nil, fmt.Errorf("serve probe: %w", err)
		}
	}
	if name != trainFeat {
		if err := b.probeTrain(rep, tr); err != nil {
			return nil, fmt.Errorf("train probe: %w", err)
		}
	}
	cov := tr.childCoverage("batch")
	rep.expect(cov >= 0.9 && cov <= 1.1, "per-batch child spans cover %.3f of their parents, want within 10 %%", cov)
	rep.Notes = append(rep.Notes, fmt.Sprintf("per-batch child spans cover %.3f of their parents", cov))
	path := filepath.Join(b.outDir, "trace-"+name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// ------------------------------------------------------------- process

type procSnap struct {
	cpuS       float64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	pauseNS    uint64
	maxRSS     int64
}

func procNow() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procSnap{
		cpuS:    tv(ru.Utime) + tv(ru.Stime),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, pauseNS: ms.PauseTotalNs,
		maxRSS: ru.Maxrss * 1024, // Linux reports KiB
	}
}

// procMetrics reports what the whole process — load generator included
// on the serve workloads — spent over the untraced windows.
func procMetrics(rep *report, a, z procSnap, targets int) {
	t := float64(targets)
	rep.set("proc.cpu_s_per_ktarget", "s", (z.cpuS-a.cpuS)/(t/1e3))
	rep.set("proc.allocs_per_target", "count", float64(z.mallocs-a.mallocs)/t)
	rep.set("proc.alloc_bytes_per_target", "B", float64(z.allocBytes-a.allocBytes)/t)
	rep.set("proc.gc_cycles", "count", float64(z.gcCycles-a.gcCycles))
	rep.set("proc.gc_pause_ms_total", "ms", float64(z.pauseNS-a.pauseNS)/1e6)
	rep.set("proc.peak_rss_bytes", "B", float64(z.maxRSS))
}

// ---------------------------------------------------------------- core

// stepOp is one batch the stepped pass replays: an epoch mini-batch, a
// train mini-batch, or the single chunk of a serve request.
type stepOp struct {
	id       int
	targets  []uint32
	seed     uint64
	features bool
}

type stepResult struct {
	digests     []uint64
	seconds     float64
	sampled     int64
	newSamplerS float64
	newWorkerS  float64
	io          core.IOStats // the stepping worker's counters, probes included
}

// stepOps builds a sampler with the workload's configuration and replays
// ops one at a time on one worker through stepBatch.
func (b *bench) stepOps(tr *tracer, ds *storage.Dataset, cfg core.Config, fanouts []int, ops []stepOp, after func(op *stepOp, batch *core.Batch) error) (*stepResult, error) {
	res := &stepResult{}
	t0 := time.Now()
	s, err := newSampler(ds, cfg)
	if err != nil {
		return nil, err
	}
	res.newSamplerS = since(t0)
	t0 = time.Now()
	w, err := newWorker(s)
	if err != nil {
		return nil, err
	}
	res.newWorkerS = since(t0)
	defer w.Close()
	// The worker's ring must stay on one thread, as in the epoch runner.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var frontier []uint32
	firstSpan := len(tr.spans)
	t0 = time.Now()
	for i := range ops {
		op := &ops[i]
		var batch *core.Batch
		batch, frontier, err = stepBatch(tr, w, op.id, op.targets, fanouts, op.seed, op.features, ds.FeatureDim(), i%probeEvery == 0, frontier)
		if err != nil {
			return nil, fmt.Errorf("stepped batch %d: %w", op.id, err)
		}
		res.digests = append(res.digests, batch.Digest())
		res.sampled += batch.TotalSampled()
		if after != nil {
			if err := after(op, batch); err != nil {
				return nil, err
			}
		}
	}
	res.seconds = since(t0)
	// The probes are not part of the batches: their time does not count
	// as the stepped pass's.
	for i := firstSpan; i < len(tr.spans); i++ {
		if sp := &tr.spans[i]; strings.HasSuffix(sp.Name, ".probe") {
			res.seconds -= float64(sp.End-sp.Start) / 1e9
		}
	}
	res.io = w.IOStats()
	return res, nil
}

// spanSums adds up the counters of every closed span with the name.
func (t *tracer) spanSums(name string) (map[string]int64, int) {
	sums := map[string]int64{}
	n := 0
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End >= 0 {
			n++
			for k, v := range s.Counters {
				sums[k] += v
			}
		}
	}
	return sums, n
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// coreMetrics derives the core and cache numbers of the workload from
// the stepped pass's batch spans. untracedS is what the same operations
// took in the real run on `workers` workers.
func coreMetrics(rep *report, tr *tracer, sr *stepResult, untracedS float64, workers int) {
	rep.set("core.new_sampler_s", "s", sr.newSamplerS)
	rep.set("core.new_worker_s", "s", sr.newWorkerS)
	batchMS := tr.durationsMS("batch")
	rep.set("core.batch_ms_p50", "ms", percentile(batchMS, 0.5))
	rep.set("core.batch_ms_p95", "ms", percentile(batchMS, 0.95))
	for li := 0; li < 3; li++ {
		ms := append(tr.durationsMS(layerSpanNames[li]), tr.durationsMS(layerSpanNames[li]+".probe")...)
		rep.set(fmt.Sprintf("core.layer_ms_p50.%d", li), "ms", percentile(ms, 0.5))
	}
	rep.set("core.frontier_ms_p50", "ms", percentile(tr.durationsMS("frontier"), 0.5))
	rep.set("core.feature_fetch_ms_p50", "ms", percentile(append(tr.durationsMS("features"), tr.durationsMS("features.probe")...), 0.5))

	c, batches := tr.spanSums("batch")
	targets := c["targets"]
	rep.set("core.sampled_entries_per_target", "count", ratio(c["sampled"], targets))
	rep.set("core.reads_per_target", "count", ratio(c["reads"], targets))
	rep.set("core.bytes_read_per_target", "B", ratio(c["bytes"], targets))
	rep.set("core.align_slack_bytes_per_target", "B", ratio(c["slack_bytes"], targets))
	rep.set("core.entries_per_read", "count", ratio(c["bytes"]/storage.EntryBytes, c["reads"]))
	rep.set("core.feat_reads_per_target", "count", ratio(c["feat_reads"], targets))
	rep.set("core.feat_bytes_per_target", "B", ratio(c["feat_bytes"], targets))
	rep.set("core.submit_syscalls_per_batch", "count", ratio(c["submit_sys"], int64(batches)))
	rep.set("core.wait_syscalls_per_batch", "count", ratio(c["wait_sys"], int64(batches)))
	rep.set("core.fixed_reads_frac", "ratio", ratio(c["fixed_reads"], c["reads"]+c["feat_reads"]))
	rep.set("core.retries", "count", float64(sr.io.Retries))
	rep.set("core.short_reads", "count", float64(sr.io.ShortReads))
	rep.set("core.stale_drained", "count", float64(sr.io.StaleDrained))
	var batchS float64
	for _, ms := range batchMS {
		batchS += ms / 1e3
	}
	rep.set("core.runner_overhead_frac", "ratio", 1-batchS/(float64(workers)*untracedS))

	rep.set("cache.hit_ratio", "ratio", ratio(c["cache_hits"], c["cache_hits"]+c["cache_misses"]))
	rep.set("cache.bytes_served_per_target", "B", ratio(c["cache_bytes"], targets))
	rep.set("cache.feat_hit_ratio", "ratio", ratio(c["feat_cache_hits"], c["feat_cache_hits"]+c["feat_cache_misses"]))
	rep.set("cache.feat_bytes_served_per_target", "B", ratio(c["feat_cache_bytes"], targets))
}

// sameCounts checks that the stepped pass read exactly what the real run
// read for the same operations (before → after are the real run's
// counters around them).
func sameCounts(rep *report, what string, stepped map[string]int64, before, after core.IOStats) {
	real := ioDelta(before, after)
	for _, key := range []string{"reads", "bytes", "slack_bytes", "cache_hits", "cache_bytes", "feat_reads", "feat_bytes"} {
		rep.expect(stepped[key] == real[key], "%s: traced pass counted %s = %d, untraced pass %d", what, key, stepped[key], real[key])
	}
}

func overhead(rep *report, tracedTPS, untracedTPS float64) {
	rep.set("trace.overhead_frac", "ratio", 1-tracedTPS/untracedTPS)
}

func (b *bench) traceEpoch(name string, rep *report, tr *tracer) error {
	r0, err := b.open(name)
	if err != nil {
		return err
	}
	defer r0.close()
	r := r0.(*epochRunner)
	if _, err := r.window(-1, nil); err != nil {
		return err
	}
	var real core.IOStats
	var digests []uint64
	var ops []stepOp
	var targets int
	var seconds float64
	p0 := procNow()
	for i := 0; i < tracedWindows; i++ {
		res, err := r.window(i, nil)
		if err != nil {
			return err
		}
		real.Add(res.io)
		digests = append(digests, res.digests...)
		targets += res.targets
		seconds += res.seconds
		rep.Attempted += res.ops
		for bi, tg := range batchesOf(r.targetsOf(i), r.cfg.BatchSize) {
			ops = append(ops, stepOp{id: len(ops), targets: tg, seed: mix(r.seedOf(i), uint64(bi))})
		}
	}
	procMetrics(rep, p0, procNow(), targets)
	sr, err := b.stepOps(tr, r.ds, r.cfg, r.cfg.Fanouts, ops, nil)
	if err != nil {
		return err
	}
	for i := range digests {
		rep.expect(sr.digests[i] == digests[i], "batch %d: stepped digest %016x != epoch digest %016x", i, sr.digests[i], digests[i])
	}
	sums, _ := tr.spanSums("batch")
	sameCounts(rep, name, sums, core.IOStats{}, real)
	coreMetrics(rep, tr, sr, seconds, r.b.workers)
	overhead(rep, float64(targets)/sr.seconds, float64(targets)/seconds)
	return nil
}

// --------------------------------------------------------------- train

// trainMetrics reports the trainer's own compute/stall split, summed
// over the epochs given.
func trainMetrics(rep *report, epochs []*train.EpochStats) {
	var compute, stall, total float64
	for _, st := range epochs {
		compute += st.ComputeSeconds
		stall += st.StallSeconds
		total += st.Seconds
	}
	last := epochs[len(epochs)-1]
	rep.set("train.compute_s", "s", compute)
	rep.set("train.stall_s", "s", stall)
	rep.set("train.stall_frac", "ratio", stall/total)
	rep.set("train.final_loss", "nats", last.Loss)
	rep.set("train.accuracy", "ratio", last.Accuracy)
}

func (b *bench) traceTrain(rep *report, tr *tracer) error {
	r0, err := b.open(trainFeat)
	if err != nil {
		return err
	}
	defer r0.close()
	r := r0.(*trainRunner)
	if _, err := r.window(-1, nil); err != nil {
		return err
	}
	var epochs []*train.EpochStats
	var ops []stepOp
	var sampled int64
	var seconds float64
	p0 := procNow()
	for i := 0; i < tracedWindows; i++ {
		res, err := r.window(i, nil)
		if err != nil {
			return err
		}
		epochs = append(epochs, res.train)
		sampled += res.sampled
		seconds += res.seconds
		rep.Attempted += res.ops
		seed := trainEpochSeed(r.cfg.Seed, i+1)
		for bi, tg := range batchesOf(r.targets, r.cfg.BatchSize) {
			ops = append(ops, stepOp{id: len(ops), targets: tg, seed: mix(seed, uint64(bi)), features: true})
		}
	}
	targets := tracedWindows * len(r.targets)
	procMetrics(rep, p0, procNow(), targets)
	trainMetrics(rep, epochs)

	m, err := newModel(b.trainModelConfig())
	if err != nil {
		return err
	}
	sr, err := b.stepOps(tr, r.ds, r.cfg, trainFanouts, ops, func(op *stepOp, batch *core.Batch) error {
		_, _, err := modelStep(tr, m, op.id, batch, r.trainer.Labels)
		return err
	})
	if err != nil {
		return err
	}
	rep.expect(sr.sampled == sampled, "train_feat: traced pass sampled %d entries, untraced pass %d", sr.sampled, sampled)
	rep.set("train.step_ms_p50", "ms", percentile(tr.durationsMS("train.step"), 0.5))
	coreMetrics(rep, tr, sr, seconds, r.b.workers)
	// The stepped pass runs sample → fetch → step one after another, so
	// its shortfall against the overlapped epoch is the overlap itself
	// plus the cost of tracing.
	overhead(rep, float64(targets)/sr.seconds, float64(targets)/seconds)
	return nil
}

// probeTrain measures the train layer on the traced runs of the other
// workloads: a quarter-size overlapped epoch, and Model.Step on batches
// sampled beforehand.
func (b *bench) probeTrain(rep *report, tr *tracer) error {
	r0, err := b.open(trainFeat)
	if err != nil {
		return err
	}
	defer r0.close()
	r := r0.(*trainRunner)
	r.targets = r.targets[:len(r.targets)/4]
	res, err := r.window(0, nil)
	if err != nil {
		return err
	}
	rep.Attempted += res.ops
	trainMetrics(rep, []*train.EpochStats{res.train})

	w, err := newWorker(r.s)
	if err != nil {
		return err
	}
	defer w.Close()
	m, err := newModel(b.trainModelConfig())
	if err != nil {
		return err
	}
	for bi, tg := range batchesOf(r.targets[:min(32*r.cfg.BatchSize, len(r.targets))], r.cfg.BatchSize) {
		batch, err := sampleBatch(w, tg, trainFanouts, mix(b.seed, uint64(bi)), true)
		if err != nil {
			return err
		}
		if _, _, err := modelStep(tr, m, bi, batch, r.trainer.Labels); err != nil {
			return err
		}
	}
	rep.set("train.step_ms_p50", "ms", percentile(tr.durationsMS("train.step"), 0.5))
	return nil
}

// --------------------------------------------------------------- serve

// scrape reads /metrics into name → value (histograms contribute their
// _sum and _count series; bucket lines are skipped).
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

type serveTrace struct {
	targets int
	seconds float64
	folds   []uint64
}

// serveTraced runs the given windows with one span per request and reads
// /metrics before and after; the serve.* metrics are the differences.
func (b *bench) serveTraced(r *serveRunner, windows []int, tr *tracer, rep *report) (*serveTrace, error) {
	before, err := scrape(r.clients[0], r.url)
	if err != nil {
		return nil, err
	}
	st := &serveTrace{}
	var lat []float64
	var ops int
	var bytes int64
	for _, w := range windows {
		res, err := r.window(w, tr)
		rep.Attempted += res.ops
		rep.Failed += res.failed
		if err != nil {
			return nil, err
		}
		st.targets += res.targets
		st.seconds += res.seconds
		st.folds = append(st.folds, res.fold)
		lat = append(lat, res.latMS...)
		ops += res.ops
		bytes += res.bytes
	}
	after, err := scrape(r.clients[0], r.url)
	if err != nil {
		return nil, err
	}
	d := func(name string) float64 { return after["ringsampler_serve_"+name] - before["ringsampler_serve_"+name] }
	mean := func(hist string, scale float64) float64 {
		if n := d(hist + "_count"); n > 0 {
			return d(hist+"_sum") / n * scale
		}
		return 0
	}
	var latSum float64
	for _, v := range lat {
		latSum += v
	}
	rep.set("serve.new_s", "s", r.newSeconds)
	rep.set("serve.rps", "1/s", float64(ops)/st.seconds)
	rep.set("serve.latency_p95_ms", "ms", percentile(lat, 0.95))
	rep.set("serve.latency_p99_ms", "ms", percentile(lat, 0.99))
	rep.set("serve.queue_wait_ms_mean", "ms", mean("queue_wait_seconds", 1e3))
	rep.set("serve.sample_ms_mean", "ms", mean("sample_seconds", 1e3))
	rep.set("serve.request_ms_mean", "ms", mean("request_seconds", 1e3))
	rep.set("serve.overhead_ms_mean", "ms", latSum/float64(len(lat))-mean("sample_seconds", 1e3))
	rep.set("serve.batch_targets_mean", "count", mean("batch_targets", 1))
	rep.set("serve.batch_jobs_mean", "count", mean("batch_jobs", 1))
	rep.set("serve.response_bytes_per_target", "B", float64(bytes)/float64(st.targets))
	rep.set("serve.rejected_429", "count", d("rejected_total"))
	rep.set("serve.deadline_504", "count", d("deadline_exceeded_total"))
	rep.set("serve.errors_5xx", "count", d("errors_total"))
	rep.Notes = append(rep.Notes, fmt.Sprintf("serve latency percentiles over %d requests", len(lat)))
	return st, nil
}

func (b *bench) traceServe(name string, rep *report, tr *tracer) error {
	r0, err := b.open(name)
	if err != nil {
		return err
	}
	defer r0.close()
	r := r0.(*serveRunner)
	if _, err := r.window(-1, nil); err != nil {
		return err
	}
	settle()
	io0 := r.srv.IOStats()
	var folds []uint64
	var ops []stepOp
	var targets int
	var seconds float64
	windows := make([]int, tracedWindows)
	p0 := procNow()
	for i := range windows {
		windows[i] = i
		res, err := r.window(i, nil)
		rep.Attempted += res.ops
		rep.Failed += res.failed
		if err != nil {
			return err
		}
		folds = append(folds, res.fold)
		targets += res.targets
		seconds += res.seconds
	}
	procMetrics(rep, p0, procNow(), targets)
	settle()
	real := r.srv.IOStats()

	st, err := b.serveTraced(r, windows, tr, rep)
	if err != nil {
		return err
	}
	var wantFold uint64
	for i := range windows {
		rep.expect(st.folds[i] == folds[i], "window %d: traced response fold %016x != untraced %016x", i, st.folds[i], folds[i])
		wantFold ^= folds[i]
		for _, stream := range r.streams(i, r.perWin) {
			for k := range stream {
				rq := &stream[k]
				ops = append(ops, stepOp{id: rq.id, targets: rq.targets, seed: mix(rq.seed, 0), features: rq.features})
			}
		}
	}

	ds, err := openDataset(b.data.Dir, false)
	if err != nil {
		return err
	}
	defer ds.Close()
	cfg := b.serveConfig(b.data.EdgeBytes / 4).Core
	sr, err := b.stepOps(tr, ds, cfg, serveFanouts, ops, nil)
	if err != nil {
		return err
	}
	var gotFold uint64
	for i := range ops {
		gotFold ^= mix(uint64(ops[i].id), sr.digests[i])
	}
	rep.expect(gotFold == wantFold, "%s: stepped digests fold to %016x, responses to %016x", name, gotFold, wantFold)
	if !r.sharded {
		// Same sampler configuration as the server's, so the reads match
		// exactly. The shards split the cache budget, so theirs do not.
		sums, _ := tr.spanSums("batch")
		sameCounts(rep, name, sums, io0, real)
	}
	coreMetrics(rep, tr, sr, seconds, r.b.workers)
	overhead(rep, float64(st.targets)/st.seconds, float64(targets)/seconds)
	return nil
}

// probeServe measures the serve layer on the traced runs of the other
// workloads: serve_closed's server and request stream, a quarter window.
func (b *bench) probeServe(rep *report, tr *tracer) error {
	r0, err := b.open(serveClosed)
	if err != nil {
		return err
	}
	defer r0.close()
	r := r0.(*serveRunner)
	r.perWin = max(r.perWin/4, 1)
	if _, err := r.window(-1, nil); err != nil {
		return err
	}
	_, err = b.serveTraced(r, []int{0}, tr, rep)
	return err
}

// --------------------------------------------------------------- shard

// probeShard samples the same chunks through the router over the two
// shard engines and through a router over one engine on the whole graph.
// The ratio is what sharding costs per chunk, free of HTTP.
func (b *bench) probeShard(rep *report, tr *tracer) error {
	if err := b.data.prereadShards(); err != nil {
		return err
	}
	open := func(dirs []string, budget int64, wrap func(shard.Engine) shard.Engine) (*shard.Router, []shard.Engine, func(), float64, error) {
		dss, err := openDatasets(dirs)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		closeAll := func() {
			for _, ds := range dss {
				ds.Close()
			}
		}
		engines, err := openEngines(dss, b.serveConfig(budget).Core, wrap)
		if err != nil {
			closeAll()
			return nil, nil, nil, 0, err
		}
		t0 := time.Now()
		rt, err := newRouter(engines)
		if err != nil {
			for _, e := range engines {
				e.Close()
			}
			closeAll()
			return nil, nil, nil, 0, err
		}
		return rt, engines, func() { rt.Close(); closeAll() }, since(t0), nil
	}
	sharded, engines, closeSharded, newS, err := open(b.data.ShardDirs, b.data.EdgeBytes/4/numShards, func(e shard.Engine) shard.Engine {
		return tracedEngine{Engine: e, tr: tr}
	})
	if err != nil {
		return err
	}
	defer closeSharded()
	single, _, closeSingle, _, err := open([]string{b.data.Dir}, b.data.EdgeBytes/4, nil)
	if err != nil {
		return err
	}
	defer closeSingle()
	rep.set("shard.router_new_s", "s", newS)

	ctx := context.Background()
	var frontierNodes int64
	for _, rq := range clientRequests(b.data.Nodes, b.seed, -2, 0, 1, b.sc.probeChunks) {
		id := tr.begin("shard.chunk", -1, rq.id)
		got, err := sampleChunk(ctx, sharded, rq.targets, serveFanouts, mix(rq.seed, 0), rq.features)
		tr.end(id, nil)
		if err != nil {
			return err
		}
		id = tr.begin("shard.single_chunk", -1, rq.id)
		want, err := sampleChunk(ctx, single, rq.targets, serveFanouts, mix(rq.seed, 0), rq.features)
		tr.end(id, nil)
		if err != nil {
			return err
		}
		rep.expect(got.Digest() == want.Digest(), "shard probe chunk %d: sharded digest %016x != single-engine %016x", rq.id, got.Digest(), want.Digest())
		for li := range got.Layers {
			frontierNodes += int64(len(got.Layers[li].Targets))
		}
	}
	chunk := percentile(tr.durationsMS("shard.chunk"), 0.5)
	one := percentile(tr.durationsMS("shard.single_chunk"), 0.5)
	rep.set("shard.chunk_ms_p50", "ms", chunk)
	rep.set("shard.single_chunk_ms_p50", "ms", one)
	rep.set("shard.chunk_slowdown", "ratio", chunk/one)
	rep.set("shard.engine_layer_ms_p50", "ms", percentile(tr.durationsMS("engine.layer"), 0.5))
	rep.set("shard.features_ms_p50", "ms", percentile(tr.durationsMS("engine.features"), 0.5))
	replayed, _ := tr.spanSums("engine.layer")
	rep.set("shard.draw_amplification", "ratio", ratio(replayed["frontier_nodes"], frontierNodes))
	var most, total int64
	for _, e := range engines {
		dev := deviceBytes(e.Stats())
		most = max(most, dev)
		total += dev
	}
	rep.set("shard.device_bytes_skew", "ratio", ratio(most*int64(len(engines)), total))
	return nil
}
