// Command epoch drives the real-engine parallel epoch runner: it
// shards a uniform target workload into mini-batches, fans them out to
// -threads OS-thread-pinned workers, and prints the aggregated
// EpochStats — throughput, merged and per-worker I/O counters, and the
// batch-latency histogram — plus the folded sample digest.
//
// With -invariance it reruns the identical workload at 1 and 2 threads
// and diffs the per-batch digest streams against the -threads run,
// demonstrating the thread-count-invariance guarantee on real I/O.
//
// -cache-mb pins the hottest neighbor lists in a memory-budgeted cache
// (see DESIGN.md §7); digests are identical with the cache on or off.
//
// -features runs the post-draw feature-fetch stage (the dataset needs a
// feature file; generate a temporary one with -feature-dim);
// -feature-cache-mb pins the hottest nodes' vectors under a second
// memory budget. -probe with -data additionally reports the dataset's
// feature presence, dim and stride.
//
// The io_uring fast-path knobs are plumbed through as flags:
// -uring-fixed (registered buffers + READ_FIXED), -uring-regfiles
// (IOSQE_FIXED_FILE), -uring-sqpoll (kernel-thread submission),
// -odirect (page-cache bypass with probed alignment) and -depth
// (in-flight cap). -probe prints the per-feature capability set.
//
// -train trains a minimal GraphSAGE node classifier end to end through
// the double-buffered sample→fetch→train pipeline (workers sample and
// fetch batch i+1 while the trainer computes on batch i); -train-serial
// is the no-overlap reference, bit-identical in weights (DESIGN.md
// §13). The dataset needs features and labels (temporary graphs default
// to 16-dim features / 8 classes under -train; tune with -feature-dim
// and -classes).
//
// Measured numbers come from the benchmark harness, not from here:
// go run -C cmd/bench . (see cmd/bench/README.md).
//
// Usage:
//
//	go run ./cmd/epoch -data benchdata/bench/ogbn-papers-div20000 -threads 8 -targets 4096
//	go run ./cmd/epoch -train -train-epochs 5        # temporary labeled graph
//	go run ./cmd/epoch -train -train-epochs 3 -feature-cache-mb 1   # prints the feature cache's learning curve
//	go run ./cmd/epoch -targets 8192 -invariance   # generates a temporary R-MAT graph
//	go run ./cmd/epoch -probe
//	go run ./cmd/epoch -targets 4096 -uring-fixed -uring-sqpoll -odirect
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
	"syscall"

	"ringsampler/internal/core"
	"ringsampler/internal/exp"
	"ringsampler/internal/gen"
	"ringsampler/internal/graph"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/train"
	"ringsampler/internal/uring"
)

// testWrapRing, when non-nil, decorates each run's rings keyed by that
// run's thread count. It exists so the CLI tests can perturb a single
// read in one run of an -invariance pair and assert the command fails;
// production runs never set it.
var testWrapRing func(threads int) func(uring.Ring, int) (uring.Ring, error)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("epoch", flag.ContinueOnError)
	var (
		data        = fs.String("data", "", "dataset directory (empty: generate a temporary R-MAT graph)")
		nodes       = fs.Int64("nodes", 50_000, "node count for the temporary graph (with empty -data)")
		edges       = fs.Int64("edges", 800_000, "edge count for the temporary graph (with empty -data)")
		threads     = fs.Int("threads", 0, "worker count (0: config default)")
		batch       = fs.Int("batch", 0, "mini-batch size (0: config default)")
		targets     = fs.Int("targets", 4096, "epoch target-node count")
		seed        = fs.Uint64("seed", 1, "sampling seed")
		backend     = fs.String("backend", "auto", "ring backend: auto, io_uring, pool, sim")
		invariance  = fs.Bool("invariance", false, "rerun at 1 and 2 threads and diff per-batch digests")
		cacheMB     = fs.Int64("cache-mb", 0, "hot-neighbor cache budget in MiB (0: cache off)")
		probe       = fs.Bool("probe", false, "print the probed io_uring capability set and exit")
		uringFixed  = fs.Bool("uring-fixed", false, "register worker arenas and read via IORING_OP_READ_FIXED (emulated on pool/sim)")
		uringReg    = fs.Bool("uring-regfiles", false, "register the edge file and submit with IOSQE_FIXED_FILE (real backend only)")
		uringSQP    = fs.Bool("uring-sqpoll", false, "create SQPOLL rings: kernel-thread submission, zero steady-state submit syscalls (real backend only)")
		odirect     = fs.Bool("odirect", false, "open the edge file O_DIRECT (falls back to buffered with a logged reason when unsupported)")
		depth       = fs.Int("depth", 0, "cap in-flight reads per worker (0: bounded only by the ring)")
		featureDim  = fs.Int("feature-dim", 0, "per-node f32 feature dimension for the temporary graph (with empty -data; 0: no features)")
		features    = fs.Bool("features", false, "fetch feature vectors for every sampled node after each batch's draw")
		featMB      = fs.Int64("feature-cache-mb", 0, "hot-node feature cache budget in MiB (0: cache off)")
		classes     = fs.Int("classes", 0, "per-node label class count for the temporary graph (with empty -data; 0: no labels)")
		trainMode   = fs.Bool("train", false, "train a GraphSAGE classifier through the double-buffered sample→fetch→train pipeline")
		trainEpochs = fs.Int("train-epochs", 3, "training epoch count (with -train)")
		trainHidden = fs.Int("train-hidden", 16, "GraphSAGE hidden width (with -train)")
		trainLayers = fs.Int("train-layers", 2, "GraphSAGE depth; must not exceed the sampling fanout depth (with -train)")
		trainLR     = fs.Float64("train-lr", 0.1, "SGD learning rate (with -train)")
		trainSerial = fs.Bool("train-serial", false, "serialize the pipeline: sample each batch to completion before training on it (with -train)")
		strategy    = fs.String("strategy", "", "sampling strategy: uniform, weighted, walk (empty: uniform)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *probe {
		caps := uring.Probe()
		fmt.Fprintf(out, "io_uring capabilities: %s\n", caps)
		fmt.Fprintf(out, "  ring:             %v\n", caps.Ring)
		fmt.Fprintf(out, "  fixed buffers:    %v\n", caps.ReadFixed)
		fmt.Fprintf(out, "  registered files: %v\n", caps.RegisteredFiles)
		fmt.Fprintf(out, "  sqpoll:           %v\n", caps.SQPoll)
		// With -data the probe also reports what the dataset carries.
		if *data != "" {
			man, err := graph.LoadManifest(filepath.Join(*data, storage.ManifestFile))
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
	if *threads < 0 {
		return fmt.Errorf("-threads %d must be non-negative (0: config default)", *threads)
	}
	if *batch < 0 {
		return fmt.Errorf("-batch %d must be non-negative (0: config default)", *batch)
	}
	if *targets <= 0 {
		return fmt.Errorf("-targets %d must be positive", *targets)
	}
	if *featureDim < 0 {
		return fmt.Errorf("-feature-dim %d must be non-negative", *featureDim)
	}
	if *featureDim > 0 && *data != "" {
		return fmt.Errorf("-feature-dim only applies to the temporary graph; %s already fixes its features", *data)
	}
	if *classes < 0 {
		return fmt.Errorf("-classes %d must be non-negative", *classes)
	}
	if *classes > 0 && *data != "" {
		return fmt.Errorf("-classes only applies to the temporary graph; %s already fixes its labels", *data)
	}
	if *trainMode && *data == "" {
		// Training needs features and labels; default the temporary graph
		// to a trainable shape instead of failing on an edge-only one.
		if *featureDim == 0 {
			*featureDim = 16
		}
		if *classes == 0 {
			*classes = 8
		}
	}
	be, err := pickBackend(*backend)
	if err != nil {
		return err
	}

	dir := *data
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ringsampler-epoch-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = filepath.Join(tmp, "g")
		switch {
		case *featureDim > 0 && *classes > 0:
			fmt.Fprintf(out, "generating temporary R-MAT graph (%d nodes, %d edges, %d-dim features, %d classes) ...\n",
				*nodes, *edges, *featureDim, *classes)
		case *featureDim > 0:
			fmt.Fprintf(out, "generating temporary R-MAT graph (%d nodes, %d edges, %d-dim features) ...\n", *nodes, *edges, *featureDim)
		default:
			fmt.Fprintf(out, "generating temporary R-MAT graph (%d nodes, %d edges) ...\n", *nodes, *edges)
		}
		if _, err := gen.GenerateWith(dir, "epoch-tmp", "rmat", *nodes, *edges, *seed,
			gen.Options{FeatureDim: *featureDim, NumClasses: *classes}); err != nil {
			return err
		}
	}
	ds, err := storage.OpenWith(dir, storage.OpenOptions{Direct: *odirect})
	if err != nil {
		return err
	}
	defer ds.Close()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Strategy = *strategy
	cfg.CacheBudgetBytes = cacheBytes
	cfg.FixedBuffers = *uringFixed
	cfg.RegisteredFiles = *uringReg
	cfg.SQPoll = *uringSQP
	cfg.Depth = *depth
	cfg.FetchFeatures = *features
	cfg.FeatureCacheBudgetBytes = featCacheBytes
	if *threads > 0 {
		cfg.Threads = *threads
	}
	if *batch > 0 {
		cfg.BatchSize = *batch
	}
	fmt.Fprintf(out, "dataset %s: %d nodes, %d edges; backend %s\n", dir, ds.NumNodes(), ds.NumEdges(), be)
	if ds.HasFeatures() {
		fmt.Fprintf(out, "features: %d-dim f32, %d B/node stride\n", ds.FeatureDim(), ds.FeatureStride())
	}
	if ds.HasLabels() {
		fmt.Fprintf(out, "labels: %d classes\n", ds.NumClasses())
	}
	if *odirect && ds.DirectAlign() > 0 {
		fmt.Fprintf(out, "O_DIRECT active: %d-byte alignment\n", ds.DirectAlign())
	}

	if *trainMode {
		// Training touches every target's label, but a shard dataset only
		// serves a node range — its neighbor lists point outside the shard
		// and gradient batches would silently mix shards. Labels are always
		// full-graph (see DESIGN.md §13), so the only thing to reject is
		// the partial adjacency.
		if ds.IsSharded() {
			return fmt.Errorf("training needs an unsharded dataset: %s is shard %d/%d (train against the unpartitioned source instead)",
				dir, ds.ShardIndex(), ds.NumShards())
		}
		if !ds.HasFeatures() {
			return fmt.Errorf("training needs node features: %s has no feature file (regenerate with a feature dim)", dir)
		}
		if !ds.HasLabels() {
			return fmt.Errorf("training needs node labels: %s has no label file (regenerate with a class count)", dir)
		}
		cfg.FetchFeatures = true
		return runTrain(ctx, out, ds, cfg, be, *targets, trainOpts{
			epochs: *trainEpochs, hidden: *trainHidden, layers: *trainLayers,
			lr: float32(*trainLR),
		}, *trainSerial)
	}

	rng := sample.NewRNG(sample.Mix(*seed, 0xe90c))
	epochTargets := exp.UniformTargets(&rng, ds.NumNodes(), *targets)

	ref, err := runOnce(ctx, out, ds, cfg, be, epochTargets)
	if err != nil {
		return err
	}
	if *invariance {
		for _, th := range []int{1, 2} {
			if th == cfg.Threads {
				continue
			}
			c := cfg
			c.Threads = th
			st, err := runOnce(ctx, out, ds, c, be, epochTargets)
			if err != nil {
				return err
			}
			for i := range ref.Digests {
				if ref.Digests[i] != st.Digests[i] {
					return fmt.Errorf("thread-count invariance VIOLATED: batch %d digest differs between %d and %d threads",
						i, cfg.Threads, th)
				}
			}
			fmt.Fprintf(out, "invariance: %d vs %d threads — all %d per-batch digests identical\n",
				cfg.Threads, th, len(ref.Digests))
		}
	}
	return nil
}

func runOnce(ctx context.Context, out io.Writer, ds *storage.Dataset, cfg core.Config, be uring.Backend, targets []uint32) (*core.EpochStats, error) {
	if testWrapRing != nil {
		cfg.WrapRing = testWrapRing(cfg.Threads)
	}
	s, err := core.New(ds, cfg, be)
	if err != nil {
		return nil, err
	}
	st, err := s.RunEpochCtx(ctx, targets, nil)
	if err != nil && (st == nil || !errors.Is(err, context.Canceled)) {
		return nil, err
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
			fn, fb := s.FeatureCacheInfo()
			fmt.Fprintf(out, "  featcache pinned %d nodes / %d B under a %d B budget; %d hits / %d misses, %d B served\n",
				fn, fb, cfg.FeatureCacheBudgetBytes, st.IO.FeatCacheHits, st.IO.FeatCacheMisses, st.IO.FeatCacheBytes)
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
	fmt.Fprintf(out, "  latency   p50 ≤ %v  p90 ≤ %v  p99 ≤ %v\n",
		st.Latency.Quantile(0.50), st.Latency.Quantile(0.90), st.Latency.Quantile(0.99))
	fmt.Fprintf(out, "  buckets   %v\n", st.Latency.String())
	if interrupted {
		// Partial epochs have holes in the digest stream — flush the
		// drained counters above but don't print a misleading digest.
		fmt.Fprintf(out, "  INTERRUPTED after %d/%d batches (partial stats above)\n", st.Completed, st.Batches)
		return st, fmt.Errorf("epoch interrupted: %w", err)
	}
	fmt.Fprintf(out, "  digest    %#016x\n", digest)
	return st, nil
}

// trainOpts bundles the -train-* model/optimizer flags.
type trainOpts struct {
	epochs, hidden, layers int
	lr                     float32
}

// runTrain trains a GraphSAGE classifier for -train-epochs epochs and
// prints the per-epoch loss/accuracy/throughput table. The overlapped
// mode (default) trains batch i while the epoch runner's workers sample
// and fetch batch i+1; -train-serial is the no-overlap reference — both
// produce bit-identical weights (DESIGN.md §13).
func runTrain(ctx context.Context, out io.Writer, ds *storage.Dataset, cfg core.Config, be uring.Backend, numTargets int, o trainOpts, serialized bool) error {
	labels, err := ds.Labels()
	if err != nil {
		return err
	}
	s, err := core.New(ds, cfg, be)
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
	targets := exp.UniformTargets(&rng, ds.NumNodes(), numTargets)
	mode := "overlapped"
	if serialized {
		mode = "serialized"
	}
	fmt.Fprintf(out, "training %d-layer GraphSAGE (hidden %d, lr %g) on %d targets, %s pipeline\n",
		o.layers, o.hidden, o.lr, len(targets), mode)
	if cfg.FeatureCacheBudgetBytes > 0 {
		fn, fb := s.FeatureCacheInfo()
		policy := "static degree-first"
		if s.FeatureCacheAdaptive() {
			policy = "re-admitted by measured access counts at epoch boundaries"
		}
		fmt.Fprintf(out, "featcache pinned %d nodes / %d B under a %d B budget, %s\n", fn, fb, cfg.FeatureCacheBudgetBytes, policy)
	}
	tr := &train.Trainer{Model: m, Labels: labels}
	stats, err := tr.Run(ctx, s, targets, o.epochs, serialized)
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

// mibFlag converts a MiB flag value to bytes, refusing a negative value
// and one whose byte count does not fit an int64.
func mibFlag(name string, mb int64) (int64, error) {
	if mb < 0 || mb > math.MaxInt64>>20 {
		return 0, fmt.Errorf("%s %d must be between 0 and %d MiB", name, mb, int64(math.MaxInt64>>20))
	}
	return mb << 20, nil
}

func pickBackend(name string) (uring.Backend, error) {
	switch be := uring.Backend(name); be {
	case "auto":
		if uring.Probe().Ring {
			return uring.BackendIOURing, nil
		}
		return uring.BackendPool, nil
	case uring.BackendIOURing, uring.BackendPool, uring.BackendSim:
		return be, nil
	default:
		return "", fmt.Errorf("unknown backend %q", name)
	}
}
