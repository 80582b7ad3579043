package main

// Every constructor and every sampling, serving, sharding and training
// entry point the harness calls is in this file, one general entry per
// layer — never a convenience wrapper, never internal/exp — so that when
// an entry point is folded away (ROADMAP item 3) or a subsystem is cut
// (item 4) this is the file of the benchmark that changes. Elsewhere the
// harness only reads accessors of, and closes, the values returned here.
// The traced pass records its spans here too: around the call, from
// outside the layer.

import (
	"context"
	"net"
	"os"
	"time"

	"ringsampler/internal/cache"
	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/memctl"
	"ringsampler/internal/sample"
	"ringsampler/internal/serve"
	"ringsampler/internal/shard"
	"ringsampler/internal/storage"
	"ringsampler/internal/train"
	"ringsampler/internal/uring"
)

// ringBackend is the backend every workload runs on: the real io_uring
// binding when the kernel grants it, the pread pool otherwise (the run
// is then marked not comparable).
func ringBackend() uring.Backend {
	if uring.Probe().Ring {
		return uring.BackendIOURing
	}
	return uring.BackendPool
}

func ringCaps() string { return uring.Probe().String() }

func mix(seed, stream uint64) uint64 { return sample.Mix(seed, stream) }

// --- gen ---

func genDataset(dir, name string, nodes, edges int64, seed uint64, featureDim, classes int) error {
	_, err := gen.GenerateWith(dir, name, "rmat", nodes, edges, seed, gen.Options{FeatureDim: featureDim, NumClasses: classes})
	return err
}

func genPartition(srcDir, dstRoot string, shards int) ([]string, error) {
	return gen.Partition(srcDir, dstRoot, shards)
}

// --- storage ---

func openDataset(dir string, direct bool) (*storage.Dataset, error) {
	return storage.OpenWith(dir, storage.OpenOptions{Direct: direct})
}

func checksumFile(path string) (string, error) { return storage.ChecksumFile(path) }

func alignedBuf(n, align int) []byte { return storage.AlignedSlice(n, align) }

// --- uring ---

func newRing(f *os.File, entries int) (uring.Ring, error) {
	return uring.NewWith(ringBackend(), f, uring.Options{Entries: entries})
}

func ringSyscalls(r uring.Ring) (submits, waits int64) {
	if sr, ok := r.(uring.SyscallReporter); ok {
		sys := sr.Syscalls()
		return sys.Submits, sys.Waits
	}
	return 0, 0
}

// --- cache + memctl ---

// The cache probe builds the hot-neighbor cache and the hot-node feature
// cache directly, each under a budget of its own, and reports what
// memctl was charged.
func buildNeighborCache(ds *storage.Dataset, budgetBytes int64) (*cache.Hot, *memctl.Budget, error) {
	b := memctl.New(budgetBytes)
	h, err := cache.Build(ds, b)
	return h, b, err
}

func buildFeatureCache(ds *storage.Dataset, budgetBytes int64) (*cache.Hot, *memctl.Budget, error) {
	b := memctl.New(budgetBytes)
	h, err := cache.BuildFeatures(ds, b)
	return h, b, err
}

// --- sample ---

type rng = sample.RNG

func newRNG(seed uint64) rng { return sample.NewRNG(seed) }

func floyd(r *rng, n, k int, out []int) []int { return sample.Floyd(r, n, k, out) }

func sortDedup(xs []uint32) []uint32 { return sample.SortDedup(xs) }

// --- core ---

func coreDefaults() core.Config { return core.DefaultConfig() }

func newSampler(ds *storage.Dataset, cfg core.Config) (*core.Sampler, error) {
	return core.New(ds, cfg, ringBackend())
}

// newWorker makes the one worker the checks and the stepped pass sample
// on; the epoch runner and the servers make their own.
func newWorker(s *core.Sampler) (*core.Worker, error) { return s.NewWorker(0) }

func runEpoch(ctx context.Context, s *core.Sampler, seed uint64, targets []uint32, onBatch func(int, *core.Batch) error) (*core.EpochStats, error) {
	return s.RunEpochSeeded(ctx, seed, targets, onBatch)
}

// sampleBatch is the single-call reference every digest is checked
// against.
func sampleBatch(w *core.Worker, targets []uint32, fanouts []int, seed uint64, features bool) (*core.Batch, error) {
	return w.SampleBatchOpts(targets, core.BatchOpts{Fanouts: fanouts, Seed: seed, Features: features})
}

// ioDelta is the counter part of a span: what the worker's IOStats
// moved by across one call.
func ioDelta(before, after core.IOStats) map[string]int64 {
	return map[string]int64{
		"reads":             after.Reads - before.Reads,
		"bytes":             after.BytesRead - before.BytesRead,
		"slack_bytes":       after.AlignSlackBytes - before.AlignSlackBytes,
		"cache_hits":        after.CacheHits - before.CacheHits,
		"cache_misses":      after.CacheMisses - before.CacheMisses,
		"cache_bytes":       after.CacheBytes - before.CacheBytes,
		"feat_reads":        after.FeatReads - before.FeatReads,
		"feat_bytes":        after.FeatBytesRead - before.FeatBytesRead,
		"feat_cache_hits":   after.FeatCacheHits - before.FeatCacheHits,
		"feat_cache_misses": after.FeatCacheMisses - before.FeatCacheMisses,
		"feat_cache_bytes":  after.FeatCacheBytes - before.FeatCacheBytes,
		"fixed_reads":       after.FixedReads - before.FixedReads,
		"submit_sys":        after.SubmitSyscalls - before.SubmitSyscalls,
		"wait_sys":          after.WaitSyscalls - before.WaitSyscalls,
		"retries":           after.Retries - before.Retries,
		"stale_drained":     after.StaleDrained - before.StaleDrained,
	}
}

// stepBatch samples one mini-batch layer by layer from outside the
// worker — Worker.SampleLayer → NextFrontierFor per layer, then
// Worker.FetchFeatures on the batch's node union — which is exactly the
// sequence SampleBatchOpts runs inside, so the batch (and its digest) is
// identical. Each call is one child span of the batch's span.
//
// With probe set, work the batch itself does not do is timed after its
// span has closed, as sibling ".probe" spans that no count includes: the
// feature fetch when the batch fetches none, and a third layer (at the
// last fanout, over the frontier the batch ended with) when it has two.
// That puts a time for every layer stage on every workload's report.
func stepBatch(tr *tracer, w *core.Worker, op int, targets []uint32, fanouts []int, seed uint64, features bool, featureDim int, probe bool, frontier []uint32) (*core.Batch, []uint32, error) {
	root := tr.begin("batch", -1, op)
	io0 := w.IOStats()
	state := core.ChunkSeedState(seed)
	b := &core.Batch{Layers: make([]core.Layer, len(fanouts))}
	frontier = append(frontier[:0], targets...)
	layer := func(parent int, name string, li, fanout int) (*core.Layer, error) {
		id := tr.begin(name, parent, op)
		before := w.IOStats()
		l, next, err := w.SampleLayer(frontier, core.LayerParams{Layer: li, Fanout: fanout, RNGState: state})
		if err != nil {
			return nil, err
		}
		c := ioDelta(before, w.IOStats())
		c["frontier_nodes"] = int64(len(frontier))
		c["sampled"] = int64(len(l.Neighbors))
		tr.end(id, c)
		state = next
		return l, nil
	}
	for li, fanout := range fanouts {
		l, err := layer(root, layerSpanNames[li], li, fanout)
		if err != nil {
			return nil, frontier, err
		}
		b.Layers[li] = *l
		id := tr.begin("frontier", root, op)
		if frontier, err = core.NextFrontierFor("", l, frontier); err != nil {
			return nil, frontier, err
		}
		tr.end(id, map[string]int64{"nodes": int64(len(frontier))})
	}
	fetch := func(parent int, name string) ([]uint32, []byte, error) {
		id := tr.begin(name, parent, op)
		before := w.IOStats()
		nodes := core.FeatNodeUnion(b)
		feats, err := w.FetchFeatures(nodes)
		if err != nil {
			return nil, nil, err
		}
		c := ioDelta(before, w.IOStats())
		c["nodes"] = int64(len(nodes))
		tr.end(id, c)
		return nodes, feats, nil
	}
	if features {
		nodes, feats, err := fetch(root, "features")
		if err != nil {
			return nil, frontier, err
		}
		b.FeatNodes, b.Features, b.FeatureDim = nodes, feats, featureDim
	}
	c := ioDelta(io0, w.IOStats())
	c["targets"] = int64(len(targets))
	c["sampled"] = b.TotalSampled()
	tr.end(root, c)
	if probe {
		if !features {
			if _, _, err := fetch(-1, "features.probe"); err != nil {
				return nil, frontier, err
			}
		}
		if li := len(fanouts); li < 3 && len(frontier) > 0 {
			if _, err := layer(-1, layerSpanNames[li]+".probe", li, fanouts[li-1]); err != nil {
				return nil, frontier, err
			}
		}
	}
	return b, frontier, nil
}

// layerSpanNames avoids a Sprintf per span on the traced path.
var layerSpanNames = []string{"layer.0", "layer.1", "layer.2", "layer.3", "layer.4", "layer.5", "layer.6", "layer.7"}

// --- serve ---

// server is what the load generator needs of either front end:
// serve.Server over one dataset or serve.RouterServer over shards.
type server interface {
	Serve(ln net.Listener) error
	Shutdown(ctx context.Context) error
	IOStats() core.IOStats
}

func serveDefaults() serve.Config { return serve.DefaultConfig() }

func newServer(ds *storage.Dataset, cfg serve.Config) (server, error) { return serve.New(ds, cfg) }

func newRouterServer(engines []shard.Engine, cfg serve.Config) (server, error) {
	return serve.NewRouter(engines, cfg)
}

// --- shard ---

func newLocal(ds *storage.Dataset, cfg core.Config) (*shard.Local, error) {
	return shard.NewLocal(ds, cfg, ringBackend())
}

func newRouter(engines []shard.Engine) (*shard.Router, error) { return shard.NewRouter(engines) }

func sampleChunk(ctx context.Context, rt *shard.Router, targets []uint32, fanouts []int, seed uint64, features bool) (*core.Batch, error) {
	return rt.SampleChunk(ctx, targets, fanouts, seed, "", features)
}

// tracedEngine times each call the router makes into one shard engine
// and counts the frontier nodes the engine was made to replay.
type tracedEngine struct {
	shard.Engine
	tr *tracer
}

func (e tracedEngine) SampleLayer(ctx context.Context, frontier []uint32, p core.LayerParams) (*core.Layer, uint64, error) {
	id := e.tr.begin("engine.layer", -1, p.Layer)
	l, st, err := e.Engine.SampleLayer(ctx, frontier, p)
	e.tr.end(id, map[string]int64{"frontier_nodes": int64(len(frontier)), "shard": int64(e.Info().Index)})
	return l, st, err
}

func (e tracedEngine) Features(ctx context.Context, nodes []uint32) ([]byte, error) {
	id := e.tr.begin("engine.features", -1, 0)
	out, err := e.Engine.Features(ctx, nodes)
	e.tr.end(id, map[string]int64{"nodes": int64(len(nodes)), "shard": int64(e.Info().Index)})
	return out, err
}

// --- train ---

func newModel(cfg train.Config) (*train.Model, error) { return train.NewModel(cfg) }

func trainEpoch(ctx context.Context, t *train.Trainer, s *core.Sampler, targets []uint32, epoch int) (*train.EpochStats, error) {
	return t.EpochOverlapped(ctx, s, targets, epoch)
}

// trainEpochSerialized is the reference the overlapped pipeline's
// weights are checked against.
func trainEpochSerialized(ctx context.Context, t *train.Trainer, s *core.Sampler, targets []uint32, epoch int) (*train.EpochStats, error) {
	return t.EpochSerialized(ctx, s, targets, epoch)
}

func trainEpochSeed(seed uint64, epoch int) uint64 { return train.EpochSeed(seed, epoch) }

func modelStep(tr *tracer, m *train.Model, op int, b *core.Batch, labels []uint32) (float64, int, error) {
	id := tr.begin("train.step", -1, op)
	loss, correct, err := m.Step(b, labels)
	tr.end(id, nil)
	return loss, correct, err
}

// shutdown stops a server within a short deadline.
func shutdown(s server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}
