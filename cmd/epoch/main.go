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
// -bench-json additionally reruns the workload at cache budgets 0 and
// 64 MiB and writes the machine-readable throughput summary the bench
// harness tracks.
//
// -features runs the post-draw feature-fetch stage (the dataset needs a
// feature file; generate a temporary one with -feature-dim);
// -feature-cache-mb pins the hottest nodes' vectors under a second
// memory budget. -bench-features runs the feature cache-budget ablation
// and writes benchdata/BENCH_features.json-shaped output, asserting the
// largest budget reaches zero device feature bytes. -probe with -data
// additionally reports the dataset's feature presence, dim and stride.
//
// The io_uring fast-path knobs are plumbed through as flags:
// -uring-fixed (registered buffers + READ_FIXED), -uring-regfiles
// (IOSQE_FIXED_FILE), -uring-sqpoll (kernel-thread submission),
// -odirect (page-cache bypass with probed alignment) and -depth
// (in-flight cap). -probe prints the per-feature capability set;
// -bench-uring runs the knob-ablation sweep and writes
// benchdata/BENCH_uring.json-shaped output with digest identity
// enforced across combinations.
//
// -train trains a minimal GraphSAGE node classifier end to end through
// the double-buffered sample→fetch→train pipeline (workers sample and
// fetch batch i+1 while the trainer computes on batch i); -train-serial
// is the no-overlap reference, bit-identical in weights (DESIGN.md
// §13). The dataset needs features and labels (temporary graphs default
// to 16-dim features / 8 classes under -train; tune with -feature-dim
// and -classes). -bench-train runs the {overlapped, serialized} ×
// {feature cache off, full} sweep and writes
// benchdata/BENCH_train.json-shaped output.
//
// Usage:
//
//	go run ./cmd/epoch -data benchdata/bench/ogbn-papers-div20000 -threads 8 -targets 4096
//	go run ./cmd/epoch -train -train-epochs 5        # temporary labeled graph
//	go run ./cmd/epoch -train -train-epochs 3 -feature-cache-mb 1   # prints the feature cache's learning curve
//	go run ./cmd/epoch -targets 2048 -bench-train benchdata/BENCH_train.json
//	go run ./cmd/epoch -targets 8192 -invariance   # generates a temporary R-MAT graph
//	go run ./cmd/epoch -targets 4096 -cache-mb 64 -bench-json benchdata/BENCH_epoch.json
//	go run ./cmd/epoch -probe
//	go run ./cmd/epoch -targets 4096 -uring-fixed -uring-sqpoll -odirect
//	go run ./cmd/epoch -targets 2048 -bench-uring benchdata/BENCH_uring.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
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

func genTemp(dir string, nodes, edges int64, seed uint64, featureDim, classes int) (graph.Manifest, error) {
	return gen.GenerateWith(dir, "epoch-tmp", "rmat", nodes, edges, seed,
		gen.Options{FeatureDim: featureDim, NumClasses: classes})
}

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
		benchJSON   = fs.String("bench-json", "", "write a JSON throughput summary at cache budgets 0 and 64 MiB to this file")
		probe       = fs.Bool("probe", false, "print the probed io_uring capability set and exit")
		uringFixed  = fs.Bool("uring-fixed", false, "register worker arenas and read via IORING_OP_READ_FIXED (emulated on pool/sim)")
		uringReg    = fs.Bool("uring-regfiles", false, "register the edge file and submit with IOSQE_FIXED_FILE (real backend only)")
		uringSQP    = fs.Bool("uring-sqpoll", false, "create SQPOLL rings: kernel-thread submission, zero steady-state submit syscalls (real backend only)")
		odirect     = fs.Bool("odirect", false, "open the edge file O_DIRECT (falls back to buffered with a logged reason when unsupported)")
		depth       = fs.Int("depth", 0, "cap in-flight reads per worker (0: bounded only by the ring)")
		benchUring  = fs.String("bench-uring", "", "run the knob-ablation sweep and write its JSON summary to this file")
		benchQuick  = fs.Bool("bench-uring-quick", false, "shrink the knob sweep to the plain-vs-fixed smoke pair")
		featureDim  = fs.Int("feature-dim", 0, "per-node f32 feature dimension for the temporary graph (with empty -data; 0: no features)")
		features    = fs.Bool("features", false, "fetch feature vectors for every sampled node after each batch's draw")
		featMB      = fs.Int64("feature-cache-mb", 0, "hot-node feature cache budget in MiB (0: cache off)")
		benchFeat   = fs.String("bench-features", "", "run the feature cache-budget ablation and write its JSON summary to this file")
		benchFeatQ  = fs.Bool("bench-features-quick", false, "shrink the feature ablation to the cache-off/cache-all smoke pair")
		classes     = fs.Int("classes", 0, "per-node label class count for the temporary graph (with empty -data; 0: no labels)")
		trainMode   = fs.Bool("train", false, "train a GraphSAGE classifier through the double-buffered sample→fetch→train pipeline")
		trainEpochs = fs.Int("train-epochs", 3, "training epoch count (with -train)")
		trainHidden = fs.Int("train-hidden", 16, "GraphSAGE hidden width (with -train)")
		trainLayers = fs.Int("train-layers", 2, "GraphSAGE depth; must not exceed the sampling fanout depth (with -train)")
		trainLR     = fs.Float64("train-lr", 0.1, "SGD learning rate (with -train)")
		trainSerial = fs.Bool("train-serial", false, "serialize the pipeline: sample each batch to completion before training on it (with -train)")
		benchTrain  = fs.String("bench-train", "", "run the training pipeline sweep and write its JSON summary to this file")
		benchTrainQ = fs.Bool("bench-train-quick", false, "shrink the training sweep to a 1-epoch smoke run (skips the throughput assertion)")
		strategy    = fs.String("strategy", "", "sampling strategy: uniform, weighted, walk (empty: uniform)")
		benchStrat  = fs.String("bench-strategy", "", "run the strategy sweep (thread invariance enforced per strategy) and write its JSON summary to this file")
		benchStratQ = fs.Bool("bench-strategy-quick", false, "shrink the strategy sweep to the uniform-vs-walk smoke pair")
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
		// -probe with -data also inspects the dataset itself; before, the
		// flag was silently ignored here and a featureful dataset was
		// indistinguishable from an edge-only one.
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
	if *cacheMB < 0 {
		return fmt.Errorf("-cache-mb %d must be non-negative", *cacheMB)
	}
	if *featMB < 0 {
		return fmt.Errorf("-feature-cache-mb %d must be non-negative", *featMB)
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
	training := *trainMode || *benchTrain != ""
	if training && *data == "" {
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
		if _, err := genTemp(dir, *nodes, *edges, *seed, *featureDim, *classes); err != nil {
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
	cfg.CacheBudgetBytes = *cacheMB << 20
	cfg.FixedBuffers = *uringFixed
	cfg.RegisteredFiles = *uringReg
	cfg.SQPoll = *uringSQP
	cfg.Depth = *depth
	cfg.FetchFeatures = *features
	cfg.FeatureCacheBudgetBytes = *featMB << 20
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

	if training {
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
	}
	if *benchTrain != "" {
		return writeBenchTrain(out, *benchTrain, dir, ds, cfg, be, *targets, trainSweepOpts{
			epochs: *trainEpochs, hidden: *trainHidden, layers: *trainLayers,
			lr: float32(*trainLR), quick: *benchTrainQ,
		})
	}
	if *trainMode {
		return runTrain(ctx, out, ds, cfg, be, *targets, trainSweepOpts{
			epochs: *trainEpochs, hidden: *trainHidden, layers: *trainLayers,
			lr: float32(*trainLR),
		}, *trainSerial)
	}

	if *benchUring != "" {
		return writeBenchUring(out, *benchUring, dir, cfg, be, *targets, *benchQuick)
	}
	if *benchFeat != "" {
		return writeBenchFeatures(out, *benchFeat, dir, ds, cfg, be, *targets, *benchFeatQ)
	}
	if *benchStrat != "" {
		return writeBenchStrategy(out, *benchStrat, dir, ds, cfg, be, *targets, *benchStratQ)
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
	if *benchJSON != "" {
		return writeBenchJSON(ctx, out, *benchJSON, dir, ds, cfg, be, epochTargets)
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

// benchPoint is one cache budget of the -bench-json summary.
type benchPoint struct {
	CacheMB       int64   `json:"cache_mb"`
	CacheNodes    int     `json:"cache_nodes"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	EntriesPerSec float64 `json:"entries_per_sec"`
	BytesPerSec   float64 `json:"bytes_per_sec"`
	DeviceBytes   int64   `json:"device_bytes"`
	Sampled       int64   `json:"sampled_entries"`
}

type benchFile struct {
	Dataset   string       `json:"dataset"`
	Backend   string       `json:"backend"`
	Threads   int          `json:"threads"`
	BatchSize int          `json:"batch_size"`
	Targets   int          `json:"targets"`
	Points    []benchPoint `json:"points"`
}

// writeBenchJSON reruns the workload at cache budgets 0 and 64 MiB and
// writes the throughput/hit-rate summary the bench harness diffs across
// commits (benchdata/BENCH_epoch.json in CI).
func writeBenchJSON(ctx context.Context, out io.Writer, path, dir string, ds *storage.Dataset, cfg core.Config, be uring.Backend, targets []uint32) error {
	bf := benchFile{
		Dataset:   dir,
		Backend:   string(be),
		Threads:   cfg.Threads,
		BatchSize: cfg.BatchSize,
		Targets:   len(targets),
	}
	for _, mb := range []int64{0, 64} {
		c := cfg
		c.CacheBudgetBytes = mb << 20
		if testWrapRing != nil {
			c.WrapRing = testWrapRing(c.Threads)
		}
		s, err := core.New(ds, c, be)
		if err != nil {
			return err
		}
		st, err := s.RunEpochCtx(ctx, targets, nil)
		if err != nil {
			return err
		}
		p := benchPoint{
			CacheMB:       mb,
			EntriesPerSec: st.EntriesPerSec,
			BytesPerSec:   st.BytesPerSec,
			DeviceBytes:   st.IO.BytesRead,
			Sampled:       st.Sampled,
		}
		p.CacheNodes, _ = s.CacheInfo()
		if lookups := st.IO.CacheHits + st.IO.CacheMisses; lookups > 0 {
			p.CacheHitRate = float64(st.IO.CacheHits) / float64(lookups)
		}
		bf.Points = append(bf.Points, p)
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "bench summary written to %s\n", path)
	return nil
}

// writeBenchUring runs the knob-ablation sweep (exp.UringSweep) on the
// dataset and writes the per-combination JSON summary
// (benchdata/BENCH_uring.json in CI): entries/s, syscalls-per-batch,
// and device bytes per knob combination, with digest identity enforced
// by the sweep itself.
func writeBenchUring(out io.Writer, path, dir string, cfg core.Config, be uring.Backend, targets int, quick bool) error {
	combos := exp.DefaultUringCombos(quick)
	reps := 3
	if quick {
		reps = 1
	}
	points, err := exp.UringSweep(dir, exp.Options{
		Targets:   targets,
		BatchSize: cfg.BatchSize,
		Threads:   cfg.Threads,
	}, be, combos, reps, cfg.Seed)
	if err != nil {
		return err
	}
	// The micro section isolates the ring I/O path from the (CPU-bound)
	// sampling work: raw 4 KiB reads at each submission depth and knob
	// combination, where deep batching and fixed buffers are visible
	// instead of diluted.
	micro, err := exp.UringMicro(dir, be, exp.DefaultUringMicroCombos(quick), 4096, 16384, reps, cfg.Seed)
	if err != nil {
		return err
	}
	type sweepFile struct {
		Dataset string                `json:"dataset"`
		Backend string                `json:"backend"`
		Caps    string                `json:"caps"`
		Threads int                   `json:"threads"`
		Targets int                   `json:"targets"`
		Points  []exp.UringPoint      `json:"points"`
		Micro   []exp.UringMicroPoint `json:"micro"`
	}
	sf := sweepFile{
		Dataset: dir,
		Backend: string(be),
		Caps:    uring.Probe().String(),
		Threads: cfg.Threads,
		Targets: targets,
	}
	sf.Points = points
	sf.Micro = micro
	for _, p := range points {
		fmt.Fprintf(out, "%-40s %12.0f entries/s  %8.1f syscalls/batch  %9d device B  (active %s)\n",
			p.Combo, p.EntriesPerSec, p.SyscallsPerBatch, p.DeviceBytes, p.Active)
	}
	for _, m := range micro {
		fmt.Fprintf(out, "micro %-34s %12.0f reads/s  %10.1f MB/s  %8.2f syscalls/read  (active %s)\n",
			m.Name, m.ReadsPerSec, m.MBPerSec, m.SyscallsPerRead, m.Active)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "uring knob sweep written to %s\n", path)
	return nil
}

// writeBenchFeatures runs the feature-store ablation (exp.FeatureSweep)
// and writes the per-budget JSON summary (benchdata/BENCH_features.json
// in CI): entries/s, feature hit rate, and device feature bytes at each
// feature-cache budget, with byte-identical payloads enforced by the
// sweep itself. The final budget is large enough to pin every node, so
// a healthy run ends at zero device feature bytes.
func writeBenchFeatures(out io.Writer, path, dir string, ds *storage.Dataset, cfg core.Config, be uring.Backend, targets int, quick bool) error {
	budgets := []int64{0, 1 << 20, 4 << 20, 1 << 30}
	if quick {
		budgets = []int64{0, 1 << 30}
	}
	points, err := exp.FeatureSweep(ds, exp.Options{
		Targets:   targets,
		BatchSize: cfg.BatchSize,
		Threads:   cfg.Threads,
	}, be, budgets, cfg.Seed)
	if err != nil {
		return err
	}
	type featPoint struct {
		BudgetMB        int64   `json:"budget_mb"`
		CacheNodes      int     `json:"cache_nodes"`
		CacheBytes      int64   `json:"cache_bytes"`
		FeatHitRate     float64 `json:"feat_hit_rate"`
		EntriesPerSec   float64 `json:"entries_per_sec"`
		DeviceFeatBytes int64   `json:"device_feat_bytes"`
		FeatReads       int64   `json:"feat_reads"`
		Digest          string  `json:"digest"`
	}
	type featFile struct {
		Dataset    string      `json:"dataset"`
		Backend    string      `json:"backend"`
		Threads    int         `json:"threads"`
		Targets    int         `json:"targets"`
		FeatureDim int         `json:"feature_dim"`
		Points     []featPoint `json:"points"`
	}
	ff := featFile{
		Dataset:    dir,
		Backend:    string(be),
		Threads:    cfg.Threads,
		Targets:    targets,
		FeatureDim: ds.FeatureDim(),
	}
	for _, p := range points {
		fp := featPoint{
			BudgetMB:        p.BudgetBytes >> 20,
			CacheNodes:      p.CacheNodes,
			CacheBytes:      p.CacheBytes,
			FeatHitRate:     p.HitRate,
			EntriesPerSec:   p.Stats.EntriesPerSec,
			DeviceFeatBytes: p.Stats.IO.FeatBytesRead,
			FeatReads:       p.Stats.IO.FeatReads,
			Digest:          fmt.Sprintf("%#016x", p.Digest),
		}
		ff.Points = append(ff.Points, fp)
		fmt.Fprintf(out, "feature cache %6d MB: %5d nodes pinned, hit rate %.3f, %9d device feature B, %12.0f entries/s\n",
			fp.BudgetMB, fp.CacheNodes, fp.FeatHitRate, fp.DeviceFeatBytes, fp.EntriesPerSec)
	}
	if last := ff.Points[len(ff.Points)-1]; last.DeviceFeatBytes != 0 {
		return fmt.Errorf("feature sweep's largest budget (%d MB) still read %d feature bytes from the device — cache admission is broken",
			last.BudgetMB, last.DeviceFeatBytes)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(ff, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "feature ablation written to %s\n", path)
	return nil
}

// writeBenchStrategy runs the sampling-strategy sweep (exp.StrategySweep)
// and writes the per-strategy JSON summary (benchdata/BENCH_strategy.json
// in CI): entries/s, device bytes, and the folded digest of each
// strategy's epoch, with 1-thread vs multi-thread digest identity
// enforced per strategy by the sweep itself.
func writeBenchStrategy(out io.Writer, path, dir string, ds *storage.Dataset, cfg core.Config, be uring.Backend, targets int, quick bool) error {
	strategies := core.StrategyNames()
	if quick {
		strategies = []string{core.StrategyUniform, core.StrategyWalk}
	}
	points, err := exp.StrategySweep(ds, exp.Options{
		Targets:   targets,
		BatchSize: cfg.BatchSize,
		Threads:   cfg.Threads,
	}, be, strategies, cfg.Seed)
	if err != nil {
		return err
	}
	type stratPoint struct {
		Strategy      string  `json:"strategy"`
		Threads       int     `json:"threads"`
		EntriesPerSec float64 `json:"entries_per_sec"`
		DeviceBytes   int64   `json:"device_bytes"`
		Sampled       int64   `json:"sampled_entries"`
		Digest        string  `json:"digest"`
	}
	type stratFile struct {
		Dataset string       `json:"dataset"`
		Backend string       `json:"backend"`
		Threads int          `json:"threads"`
		Targets int          `json:"targets"`
		Points  []stratPoint `json:"points"`
	}
	sf := stratFile{
		Dataset: dir,
		Backend: string(be),
		Threads: cfg.Threads,
		Targets: targets,
	}
	for _, p := range points {
		sp := stratPoint{
			Strategy:      p.Strategy,
			Threads:       p.Threads,
			EntriesPerSec: p.Stats.EntriesPerSec,
			DeviceBytes:   p.Stats.IO.BytesRead,
			Sampled:       p.Stats.Sampled,
			Digest:        fmt.Sprintf("%#016x", p.Digest),
		}
		sf.Points = append(sf.Points, sp)
		fmt.Fprintf(out, "strategy %-9s %12.0f entries/s  %9d device B  %10d sampled  digest %s\n",
			sp.Strategy, sp.EntriesPerSec, sp.DeviceBytes, sp.Sampled, sp.Digest)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "strategy sweep written to %s\n", path)
	return nil
}

// trainSweepOpts bundles the -train-* model/optimizer flags.
type trainSweepOpts struct {
	epochs, hidden, layers int
	lr                     float32
	quick                  bool
}

// runTrain trains a GraphSAGE classifier for -train-epochs epochs and
// prints the per-epoch loss/accuracy/throughput table. The overlapped
// mode (default) trains batch i while the epoch runner's workers sample
// and fetch batch i+1; -train-serial is the no-overlap reference — both
// produce bit-identical weights (DESIGN.md §13).
func runTrain(ctx context.Context, out io.Writer, ds *storage.Dataset, cfg core.Config, be uring.Backend, numTargets int, o trainSweepOpts, serialized bool) error {
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

// writeBenchTrain runs the training pipeline sweep (exp.TrainSweep) and
// writes the per-configuration JSON summary (benchdata/BENCH_train.json
// in CI): epochs-to-accuracy and end-to-end throughput for {overlapped,
// serialized} × {feature cache off, full}, with bit-identical weights
// enforced across all four points by the sweep itself. In full mode the
// sweep also asserts the overlapped pipeline's throughput strictly
// beats the serialized reference.
func writeBenchTrain(out io.Writer, path, dir string, ds *storage.Dataset, cfg core.Config, be uring.Backend, targets int, o trainSweepOpts) error {
	points, err := exp.TrainSweep(ds, exp.TrainOptions{
		Options: exp.Options{
			Targets:   targets,
			BatchSize: cfg.BatchSize,
			Threads:   cfg.Threads,
		},
		Epochs: o.epochs,
		Hidden: o.hidden,
		Layers: o.layers,
		LR:     o.lr,
		Quick:  o.quick,
	}, be, cfg.Seed)
	if err != nil {
		return err
	}
	type trainFile struct {
		Dataset    string           `json:"dataset"`
		Backend    string           `json:"backend"`
		Threads    int              `json:"threads"`
		Targets    int              `json:"targets"`
		Epochs     int              `json:"epochs"`
		FeatureDim int              `json:"feature_dim"`
		Classes    int              `json:"classes"`
		Hidden     int              `json:"hidden"`
		Layers     int              `json:"layers"`
		LR         float32          `json:"lr"`
		Points     []exp.TrainPoint `json:"points"`
	}
	tf := trainFile{
		Dataset:    dir,
		Backend:    string(be),
		Threads:    cfg.Threads,
		Targets:    targets,
		Epochs:     o.epochs,
		FeatureDim: ds.FeatureDim(),
		Classes:    ds.NumClasses(),
		Hidden:     o.hidden,
		Layers:     o.layers,
		LR:         o.lr,
		Points:     points,
	}
	for _, p := range points {
		mode := "overlapped"
		if p.Serialized {
			mode = "serialized"
		}
		cache := "cache off"
		if p.FeatCache {
			cache = "cache full"
		}
		fmt.Fprintf(out, "train %-10s %-10s loss %.4f  acc %.3f  %12.0f entries/s  weights %s\n",
			mode, cache, p.FinalLoss, p.FinalAccuracy, p.EntriesPerSec, p.FinalDigest)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "training sweep written to %s\n", path)
	return nil
}

func pickBackend(name string) (uring.Backend, error) {
	switch name {
	case "auto":
		if uring.Probe().Ring {
			return uring.BackendIOURing, nil
		}
		return uring.BackendPool, nil
	case "io_uring":
		return uring.BackendIOURing, nil
	case "pool":
		return uring.BackendPool, nil
	case "sim":
		return uring.BackendSim, nil
	default:
		return "", fmt.Errorf("unknown backend %q", name)
	}
}
