// Command epoch drives the real-engine parallel epoch runner over a
// dataset (-data, required in every mode but -probe): it shards a
// uniform target workload into mini-batches, fans them out to -threads
// workers, each locked to an OS thread per batch, and prints the
// aggregated EpochStats — throughput, merged and per-worker I/O
// counters, and exact batch-latency quantiles — plus the folded sample
// digest, identical at every thread count (TestEpochThreadInvariance).
// The ring backend is probed: io_uring where the kernel allows it, the
// portable pread pool otherwise.
//
// -cache-mb pins neighbor lists, shortest first, in a memory-budgeted
// cache (see DESIGN.md §7); digests are identical with the cache on or
// off.
//
// -features runs the post-draw feature-fetch stage (the dataset needs a
// feature file); -feature-cache-mb pins the hottest nodes' vectors
// under a second memory budget, and is refused without -features or
// -train, the only stages that read it. -probe with -data additionally reports
// the dataset's feature presence, dim and stride.
//
// -odirect bypasses the page cache with the probed alignment; every
// read is one plain IORING_OP_READ either way. -probe prints the
// io_uring capability set.
//
// -train trains a minimal GraphSAGE node classifier end to end through
// the double-buffered sample→fetch→train pipeline (workers sample and
// fetch batch i+1 while the trainer computes on batch i), bit-identical
// in weights to the no-overlap reference (DESIGN.md §13). The dataset
// needs features and labels, as the checked-in
// benchdata/bench/ogbn-papers-div20000 and cmd/bench's rmat-1m have.
//
// -cpuprofile FILE and -trace FILE wrap the epoch (or -train) run in a
// runtime/pprof CPU profile and a runtime/trace execution trace, for
// go tool pprof and go tool trace.
//
// Measured numbers come from the benchmark harness, not from here:
// go run -C cmd/bench . (see cmd/bench/README.md).
//
// Usage:
//
//	go run ./cmd/epoch -data benchdata/bench/ogbn-papers-div20000 -threads 8 -targets 4096
//	go run ./cmd/epoch -data benchdata/bench/ogbn-papers-div20000 -train -train-epochs 5
//	go run ./cmd/epoch -data cmd/bench/out/data/rmat-1m -train -train-epochs 3 -feature-cache-mb 32   # prints the feature cache's learning curve
//	go run ./cmd/epoch -probe
//	go run ./cmd/epoch -data benchdata/bench/ogbn-papers-div20000 -targets 4096 -odirect -cpuprofile cpu.prof -trace epoch.trace
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"syscall"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/train"
	"ringsampler/internal/uring"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("epoch", flag.ContinueOnError)
	var (
		data        = fs.String("data", "", "dataset directory (required except with -probe)")
		threads     = fs.Int("threads", 0, "worker count (0: config default)")
		batch       = fs.Int("batch", 0, "mini-batch size (0: config default)")
		targets     = fs.Int("targets", 4096, "epoch target-node count")
		seed        = fs.Uint64("seed", 1, "sampling seed")
		cacheMB     = fs.Int64("cache-mb", 0, "neighbor cache budget in MiB, shortest lists first (0: cache off)")
		probe       = fs.Bool("probe", false, "print the probed io_uring capability set and exit")
		odirect     = fs.Bool("odirect", false, "open the edge file O_DIRECT (falls back to buffered with a logged reason when unsupported)")
		features    = fs.Bool("features", false, "fetch feature vectors for every sampled node after each batch's draw")
		featMB      = fs.Int64("feature-cache-mb", 0, "hot-node feature cache budget in MiB, with -features or -train (0: cache off)")
		trainMode   = fs.Bool("train", false, "train a GraphSAGE classifier through the double-buffered sample→fetch→train pipeline")
		trainEpochs = fs.Int("train-epochs", 3, "training epoch count (with -train)")
		trainHidden = fs.Int("train-hidden", 16, "GraphSAGE hidden width (with -train)")
		trainLayers = fs.Int("train-layers", 2, "GraphSAGE depth; must not exceed the sampling fanout depth (with -train)")
		trainLR     = fs.Float64("train-lr", 0.1, "SGD learning rate (with -train)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the epoch (or -train) run to this file")
		traceOut    = fs.String("trace", "", "write an execution trace of the epoch (or -train) run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *probe {
		caps := uring.Probe()
		fmt.Fprintf(out, "io_uring capabilities: %s\n", caps)
		fmt.Fprintf(out, "  ring:             %v\n", caps.Ring)
		// With -data the probe also reports what the dataset carries.
		if *data != "" {
			man, err := storage.LoadManifest(filepath.Join(*data, storage.ManifestFile))
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "dataset %s: %d nodes, %d edges\n", *data, man.NumNodes, man.NumEdges)
			if man.FeatureDim > 0 {
				fmt.Fprintf(out, "  features:         %d-dim f32, %d B/node stride, %d B total (checksum %s)\n",
					man.FeatureDim, man.FeatureDim*storage.FeatureElemBytes, man.FeatBytes, man.FeatChecksum)
			} else {
				fmt.Fprintf(out, "  features:         none\n")
			}
			if man.NumClasses > 0 {
				fmt.Fprintf(out, "  labels:           %d classes, %d B total (checksum %s)\n",
					man.NumClasses, man.NumNodes*storage.LabelBytes, man.LabelChecksum)
			} else {
				fmt.Fprintf(out, "  labels:           none\n")
			}
		}
		return nil
	}
	// SIGINT/SIGTERM drain the epoch gracefully: no further batches are
	// dispatched, in-flight ones finish, and the partial stats are still
	// printed before the command exits nonzero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	cacheBytes, err := mibFlag("-cache-mb", *cacheMB)
	if err != nil {
		return err
	}
	featCacheBytes, err := mibFlag("-feature-cache-mb", *featMB)
	if err != nil {
		return err
	}
	if featCacheBytes > 0 && !*features && !*trainMode {
		return errors.New("-feature-cache-mb needs -features or -train: no other stage reads the feature cache")
	}
	if *threads < 0 || *threads > core.MaxThreads {
		return fmt.Errorf("-threads %d must be between 0 (config default) and %d", *threads, core.MaxThreads)
	}
	if *batch < 0 {
		return fmt.Errorf("-batch %d must be non-negative (0: config default)", *batch)
	}
	if *targets <= 0 {
		return fmt.Errorf("-targets %d must be positive", *targets)
	}
	if *data == "" {
		return errors.New("-data is required: name a dataset directory (cmd/benchprep and cmd/bench make them)")
	}
	ds, err := storage.OpenWith(*data, storage.OpenOptions{Direct: *odirect})
	if err != nil {
		return err
	}
	defer ds.Close()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.CacheBudgetBytes = cacheBytes
	cfg.FetchFeatures = *features
	cfg.FeatureCacheBudgetBytes = featCacheBytes
	if *threads > 0 {
		cfg.Threads = *threads
	}
	if *batch > 0 {
		cfg.BatchSize = *batch
	}
	fmt.Fprintf(out, "dataset %s: %d nodes, %d edges; backend %s\n", *data, ds.NumNodes(), ds.NumEdges(), uring.Auto())
	if ds.HasFeatures() {
		fmt.Fprintf(out, "features: %d-dim f32, %d B/node stride\n", ds.FeatureDim(), ds.FeatureStride())
	}
	if ds.HasLabels() {
		fmt.Fprintf(out, "labels: %d classes\n", ds.NumClasses())
	}
	if *odirect && ds.DirectAlign() > 0 {
		fmt.Fprintf(out, "O_DIRECT active: %d-byte alignment\n", ds.DirectAlign())
	}

	// Profiles cover the run from here on, and are flushed and closed
	// when it returns.
	for _, p := range []struct {
		path  string
		start func(io.Writer) error
		end   func()
	}{{*cpuProfile, pprof.StartCPUProfile, pprof.StopCPUProfile}, {*traceOut, trace.Start, trace.Stop}} {
		if p.path == "" {
			continue
		}
		stop, perr := startProfile(p.path, p.start, p.end)
		if perr != nil {
			return perr
		}
		defer func() {
			if serr := stop(); err == nil {
				err = serr
			}
		}()
	}

	if *trainMode {
		// Training touches every target's label, but a shard dataset only
		// serves a node range — its neighbor lists point outside the shard
		// and gradient batches would silently mix shards. Labels are always
		// full-graph (see DESIGN.md §13), so the only thing to reject is
		// the partial adjacency.
		if ds.IsSharded() {
			return fmt.Errorf("training needs an unsharded dataset: %s is shard %d/%d (train against the unpartitioned source instead)",
				*data, ds.ShardIndex(), ds.NumShards())
		}
		if !ds.HasFeatures() {
			return fmt.Errorf("training needs node features: %s has no feature file (regenerate with a feature dim)", *data)
		}
		if !ds.HasLabels() {
			return fmt.Errorf("training needs node labels: %s has no label file (regenerate with a class count)", *data)
		}
		cfg.FetchFeatures = true
		return runTrain(ctx, out, ds, cfg, *targets, trainOpts{
			epochs: *trainEpochs, hidden: *trainHidden, layers: *trainLayers,
			lr: float32(*trainLR),
		})
	}

	rng := sample.NewRNG(sample.Mix(*seed, 0xe90c))
	return runEpoch(ctx, out, ds, cfg, uniformTargets(&rng, ds.NumNodes(), *targets))
}

// runEpoch runs one epoch over targets on a sampler of its own and
// prints its report (partial counters and no digest when interrupted).
func runEpoch(ctx context.Context, out io.Writer, ds *storage.Dataset, cfg core.Config, targets []uint32) error {
	s, err := core.New(ds, cfg, uring.Auto())
	if err != nil {
		return err
	}
	st, err := s.RunEpochSeeded(ctx, cfg.Seed, targets, nil)
	if err != nil && (st == nil || !errors.Is(err, context.Canceled)) {
		return err
	}
	interrupted := err != nil
	var digest uint64
	for _, d := range st.Digests {
		digest = digest*0x100000001b3 ^ d
	}
	fmt.Fprintf(out, "\nthreads %d: %d targets in %d batches, %.4fs\n", cfg.Threads, st.Targets, st.Batches, st.Seconds)
	fmt.Fprintf(out, "  sampled   %d entries (%.0f entries/s, %.2f MB/s)\n", st.Sampled, st.EntriesPerSec, st.BytesPerSec/(1<<20))
	if cfg.CacheBudgetBytes > 0 {
		cn, cb := s.CacheInfo()
		fmt.Fprintf(out, "  cache     pinned %d nodes / %d B under a %d B budget; %d hits / %d misses, %d B served\n",
			cn, cb, cfg.CacheBudgetBytes, st.IO.CacheHits, st.IO.CacheMisses, st.IO.CacheBytes)
	}
	if cfg.FetchFeatures {
		fmt.Fprintf(out, "  features  %d ring reads, %d B from the device\n", st.IO.FeatReads, st.IO.FeatBytesRead)
		if cfg.FeatureCacheBudgetBytes > 0 {
			fmt.Fprintf(out, "  %s; %d hits / %d misses, %d B served\n",
				featcachePinned(s, cfg), st.IO.FeatCacheHits, st.IO.FeatCacheMisses, st.IO.FeatCacheBytes)
		}
	}
	fmt.Fprintf(out, "  io        %+v\n", st.IO)
	if reads := st.IO.Reads + st.IO.FeatReads; reads > 0 && st.IO.UserCPUNanos+st.IO.SysCPUNanos > 0 {
		// Worker-thread CPU per ring read: user is what the engine adds
		// (draw, plan, SQE prep, CQ harvest, frontier build), sys the
		// kernel's read path under io_uring_enter.
		fmt.Fprintf(out, "  cpu       user %.0f ns/read  sys %.0f ns/read  (%d reads on %d worker threads)\n",
			float64(st.IO.UserCPUNanos)/float64(reads), float64(st.IO.SysCPUNanos)/float64(reads), reads, st.Workers)
	}
	for wid, ws := range st.PerWorker {
		fmt.Fprintf(out, "  worker %2d %+v\n", wid, ws)
	}
	// Exact nearest-rank quantiles over the batches that completed.
	lats := slices.DeleteFunc(slices.Clone(st.Latencies), func(d time.Duration) bool { return d == 0 })
	fmt.Fprintf(out, "  latency   p50 %v  p90 %v  p99 %v  max %v\n",
		core.Quantile(lats, 0.50), core.Quantile(lats, 0.90), core.Quantile(lats, 0.99), core.Quantile(lats, 1))
	if interrupted {
		// Partial epochs have holes in the digest stream — flush the
		// drained counters above but don't print a misleading digest.
		fmt.Fprintf(out, "  INTERRUPTED after %d/%d batches (partial stats above)\n", st.Completed, st.Batches)
		return fmt.Errorf("epoch interrupted: %w", err)
	}
	fmt.Fprintf(out, "  digest    %#016x\n", digest)
	return nil
}

// featcachePinned describes the feature cache: what it pinned, and the
// memory gauge — what it holds by component and what its budget was
// charged, which are the same bytes. The index is the pinned bitmap and
// rank directory; the learner is the access counters and re-admission
// bitmap, 0 B on a cache that does not learn.
func featcachePinned(s *core.Sampler, cfg core.Config) string {
	nodes, _ := s.FeatureCacheInfo()
	rows, index, learn, charged := s.FeatureCacheHeld()
	return fmt.Sprintf("featcache pinned %d nodes under a %d B budget, holding rows %d B + index %d B + learner %d B = charged %d B",
		nodes, cfg.FeatureCacheBudgetBytes, rows, index, learn, charged)
}

// trainOpts bundles the -train-* model/optimizer flags.
type trainOpts struct {
	epochs, hidden, layers int
	lr                     float32
}

// runTrain trains a GraphSAGE classifier for -train-epochs epochs and
// prints the per-epoch loss/accuracy/throughput table. The pipeline
// trains batch i while the epoch runner's workers sample and fetch
// batch i+1, with the same weights as the no-overlap reference
// (train.Trainer.EpochSerialized; DESIGN.md §13).
func runTrain(ctx context.Context, out io.Writer, ds *storage.Dataset, cfg core.Config, numTargets int, o trainOpts) error {
	labels, err := ds.Labels()
	if err != nil {
		return err
	}
	s, err := core.New(ds, cfg, uring.Auto())
	if err != nil {
		return err
	}
	m, err := train.NewModel(train.Config{
		FeatureDim: ds.FeatureDim(),
		Hidden:     o.hidden,
		Classes:    ds.NumClasses(),
		Layers:     o.layers,
		LR:         o.lr,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return err
	}
	rng := sample.NewRNG(sample.Mix(cfg.Seed, 0x7ea14))
	targets := uniformTargets(&rng, ds.NumNodes(), numTargets)
	fmt.Fprintf(out, "training %d-layer GraphSAGE (hidden %d, lr %g) on %d targets, overlapped pipeline\n",
		o.layers, o.hidden, o.lr, len(targets))
	if cfg.FeatureCacheBudgetBytes > 0 {
		policy := "static degree-first"
		if s.FeatureCacheAdaptive() {
			policy = "re-admitted by measured access counts at epoch boundaries"
		}
		fmt.Fprintf(out, "%s, %s\n", featcachePinned(s, cfg), policy)
	}
	tr := &train.Trainer{Model: m, Labels: labels}
	stats, err := tr.Run(ctx, s, targets, o.epochs)
	for _, st := range stats {
		fmt.Fprintf(out, "epoch %2d: loss %.4f  acc %.3f  %8.4fs (compute %.4fs, stall %.4fs, overlap %.2f)  %12.0f entries/s  weights %s\n",
			st.Epoch, st.Loss, st.Accuracy, st.Seconds, st.ComputeSeconds, st.StallSeconds,
			st.OverlapEfficiency, st.EntriesPerSec, st.WeightsDigest)
		// The sampler's side of the same epoch, and — with an adaptive
		// feature cache — its learning curve: the hit ratio rises and the
		// device bytes fall as re-admissions follow the access pattern.
		fmt.Fprintf(out, "          io: %.1f device B/target", float64(st.IO.DeviceBytes())/float64(st.Targets))
		if lookups := st.IO.FeatCacheHits + st.IO.FeatCacheMisses; lookups > 0 {
			fmt.Fprintf(out, "  featcache hit %.4f  admitted %d evicted %d rows  re-admission %.2f ms (%.2f%% of epoch)",
				float64(st.IO.FeatCacheHits)/float64(lookups), st.IO.FeatCacheAdmitted, st.IO.FeatCacheEvicted,
				st.ReadmitSeconds*1e3, 100*st.ReadmitSeconds/st.Seconds)
		}
		fmt.Fprintln(out)
	}
	return err
}

// startProfile creates path and starts a profile into it; the returned
// stop ends the profile and closes the file.
func startProfile(path string, start func(io.Writer) error, end func()) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := start(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error { end(); return f.Close() }, nil
}

// mibFlag converts a MiB flag value to bytes, refusing a negative value
// and one whose byte count does not fit an int64.
func mibFlag(name string, mb int64) (int64, error) {
	if mb < 0 || mb > math.MaxInt64>>20 {
		return 0, fmt.Errorf("%s %d must be between 0 and %d MiB", name, mb, int64(math.MaxInt64>>20))
	}
	return mb << 20, nil
}

// uniformTargets draws n uniform target nodes from [0, numNodes)
// through the caller's RNG stream; a non-positive n draws nothing. The
// draw is 64-bit clean — a uint32 draw would truncate a node count of
// 2³² or more — and below 2³² nodes Uint64n consumes and returns
// exactly what Uint32n would, so the targets match a uint32 draw's.
func uniformTargets(rng *sample.RNG, numNodes int64, n int) []uint32 {
	if n <= 0 {
		return nil
	}
	targets := make([]uint32, n)
	for i := range targets {
		targets[i] = uint32(rng.Uint64n(uint64(numNodes)))
	}
	return targets
}
