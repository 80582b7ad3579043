// Command serve runs the online sampling service: an HTTP front end
// that coalesces concurrent sampling requests into the micro-batches
// the ring workers are built for, with admission control and a
// Prometheus metrics surface (see DESIGN.md §8).
//
//	POST /v1/sample  — {"targets":[...],"fanouts":[...],"seed":N,"features":bool,"strategy":"..."}
//	GET  /healthz    — liveness (503 while draining)
//	GET  /metrics    — Prometheus text format
//
// "strategy" picks the draw strategy per request — "uniform"
// (default), "weighted", or "walk" (DESIGN.md §11); unknown names are
// rejected 400 before any work is queued.
//
// With ?features=true (or "features":true in the body) each returned
// batch carries the sampled nodes' raw little-endian f32 vectors,
// fetched through the same ring pipeline as the adjacency reads. The
// dataset must have a feature file (-feature-dim on the temporary
// graph); -feature-cache-mb pins the hottest nodes' vectors in memory.
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish, new ones
// are refused, and the final I/O counters are flushed to stderr. A
// second signal (or -drain-timeout expiring) force-cancels what is
// left.
//
// Sharded serving (DESIGN.md §12): -shards N partitions the dataset by
// node range into N shards, runs every shard in-process, and serves
// the same /v1/sample API through the scatter/gather router — responses
// are byte-identical to a single-node run. -router url1,url2 instead
// fronts already-running shard servers (each a plain `serve -data
// <shard-dir>` whose dataset is one shard) over HTTP.
//
// Serving throughput and latency are measured by the benchmark harness
// (go run -C cmd/bench . -workload serve_closed; see cmd/bench/README.md).
//
// Usage:
//
//	go run ./cmd/serve -data benchdata/bench/ogbn-papers-div20000 -addr :8080 -threads 8
//	go run ./cmd/serve -addr 127.0.0.1:8080        # temporary R-MAT graph
//	go run ./cmd/serve -shards 4                   # partitioned, router-fronted
//	go run ./cmd/serve -router http://s0:8080,http://s1:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/serve"
	"ringsampler/internal/shard"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

func main() {
	log.SetFlags(0)
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run serves until ctx is canceled or a SIGINT/SIGTERM arrives, then
// drains.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address")
		data         = fs.String("data", "", "dataset directory (empty: generate a temporary R-MAT graph)")
		nodes        = fs.Int64("nodes", 50_000, "node count for the temporary graph (with empty -data)")
		edges        = fs.Int64("edges", 800_000, "edge count for the temporary graph (with empty -data)")
		threads      = fs.Int("threads", 0, "worker-pool size (0: config default)")
		batch        = fs.Int("batch", 0, "engine mini-batch size / chunking granularity (0: config default)")
		cacheMB      = fs.Int64("cache-mb", 0, "hot-neighbor cache budget in MiB (0: cache off)")
		featMB       = fs.Int64("feature-cache-mb", 0, "hot-node feature cache budget in MiB (0: cache off)")
		featureDim   = fs.Int("feature-dim", 0, "per-node f32 feature dimension for the temporary graph (with empty -data; 0: no features)")
		queue        = fs.Int("queue", 0, "admission queue bound in jobs; full queue fast-fails 429 (0: default 256)")
		batchWindow  = fs.Duration("batch-window", 0, "max wait for more jobs before flushing a partial micro-batch (0: default 2ms)")
		maxBatch     = fs.Int("max-batch", 0, "flush a micro-batch at this many targets (0: engine batch size)")
		seed         = fs.Uint64("seed", 1, "seed for the temporary graph")
		backend      = fs.String("backend", "auto", "ring backend: auto, io_uring, pool, sim")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "max graceful-drain wait on SIGINT/SIGTERM")
		shards       = fs.Int("shards", 0, "partition the dataset into this many node-range shards and serve through the scatter/gather router (0: single-node)")
		routerURLs   = fs.String("router", "", "comma-separated shard server base URLs to front as a router (no local dataset)")
		uringFixed   = fs.Bool("uring-fixed", false, "register worker arenas and read via IORING_OP_READ_FIXED (emulated on pool/sim)")
		uringReg     = fs.Bool("uring-regfiles", false, "register the edge file and submit with IOSQE_FIXED_FILE (real backend only)")
		uringSQP     = fs.Bool("uring-sqpoll", false, "create SQPOLL rings: kernel-thread submission (real backend only)")
		odirect      = fs.Bool("odirect", false, "open the edge file O_DIRECT (falls back to buffered with a logged reason when unsupported)")
		depth        = fs.Int("depth", 0, "cap in-flight reads per worker (0: bounded only by the ring)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
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
	if *featureDim < 0 {
		return fmt.Errorf("-feature-dim %d must be non-negative", *featureDim)
	}
	if *featureDim > 0 && *data != "" {
		return fmt.Errorf("-feature-dim only applies to the temporary graph; %s already fixes its features", *data)
	}
	be, err := pickBackend(*backend)
	if err != nil {
		return err
	}
	if *routerURLs != "" && (*shards != 0 || *data != "") {
		return fmt.Errorf("-router fronts remote shard servers and combines with neither -shards nor -data")
	}
	if *shards < 0 || *shards == 1 {
		return fmt.Errorf("-shards %d: need 0 (single-node) or ≥ 2", *shards)
	}

	if *routerURLs != "" {
		// Pure router mode: resolve each shard's identity over HTTP and
		// serve the scatter/gather front end — no local graph bytes.
		cfg := serve.DefaultConfig()
		cfg.Backend = be
		if *threads > 0 {
			cfg.Core.Threads = *threads
		}
		if *batch > 0 {
			cfg.Core.BatchSize = *batch
		}
		var engines []shard.Engine
		for _, u := range strings.Split(*routerURLs, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			eng, err := shard.NewRemote(ctx, u, nil)
			if err != nil {
				return err
			}
			engines = append(engines, eng)
			info := eng.Info()
			fmt.Fprintf(out, "shard %d/%d at %s: nodes [%d,%d)\n", info.Index, info.Total, u, info.Lo, info.Hi)
		}
		srv, err := serve.NewRouter(engines, cfg)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		rt := srv.Router()
		fmt.Fprintf(out, "routing %d shards: %d nodes, %d edges\n", rt.Shards(), rt.NumNodes(), rt.NumEdges())
		fmt.Fprintf(out, "serving on http://%s\n", ln.Addr())
		return serveLoop(ctx, out, srv, ln, *drainTimeout)
	}

	dir := *data
	if dir == "" {
		tmp, err := os.MkdirTemp("", "ringsampler-serve-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = filepath.Join(tmp, "g")
		if *featureDim > 0 {
			fmt.Fprintf(out, "generating temporary R-MAT graph (%d nodes, %d edges, %d-dim features) ...\n", *nodes, *edges, *featureDim)
		} else {
			fmt.Fprintf(out, "generating temporary R-MAT graph (%d nodes, %d edges) ...\n", *nodes, *edges)
		}
		if _, err := gen.GenerateWith(dir, "serve-tmp", "rmat", *nodes, *edges, *seed, gen.Options{FeatureDim: *featureDim}); err != nil {
			return err
		}
	}
	ds, err := storage.OpenWith(dir, storage.OpenOptions{Direct: *odirect})
	if err != nil {
		return err
	}
	defer ds.Close()

	cfg := serve.DefaultConfig()
	cfg.Backend = be
	cfg.Core.CacheBudgetBytes = cacheBytes
	cfg.Core.FeatureCacheBudgetBytes = featCacheBytes
	cfg.Core.FixedBuffers = *uringFixed
	cfg.Core.RegisteredFiles = *uringReg
	cfg.Core.SQPoll = *uringSQP
	cfg.Core.Depth = *depth
	if *threads > 0 {
		cfg.Core.Threads = *threads
	}
	if *batch > 0 {
		cfg.Core.BatchSize = *batch
	}
	if *queue > 0 {
		cfg.QueueDepth = *queue
	}
	if *batchWindow > 0 {
		cfg.BatchWindow = *batchWindow
	}
	if *maxBatch > 0 {
		cfg.MaxBatchTargets = *maxBatch
	}

	if *shards >= 2 {
		// Sharded-local mode: partition by node range, run every shard
		// in-process, serve through the router. Responses stay
		// byte-identical to the single-node server over the same files.
		tmp, err := os.MkdirTemp("", "ringsampler-shards-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		fmt.Fprintf(out, "partitioning %s into %d shards ...\n", dir, *shards)
		dirs, err := gen.Partition(dir, tmp, *shards)
		if err != nil {
			return err
		}
		ds.Close() // the shards carry their own handles
		engines := make([]shard.Engine, len(dirs))
		for i, sdir := range dirs {
			sds, err := storage.OpenWith(sdir, storage.OpenOptions{Direct: *odirect})
			if err != nil {
				return err
			}
			defer sds.Close()
			scfg := cfg.Core
			if !sds.HasFeatures() {
				scfg.FeatureCacheBudgetBytes = 0
			}
			eng, err := shard.NewLocal(sds, scfg, cfg.Backend)
			if err != nil {
				return err
			}
			engines[i] = eng
			lo, hi := sds.ShardRange()
			fmt.Fprintf(out, "shard %d/%d: nodes [%d,%d)\n", i, len(dirs), lo, hi)
		}
		srv, err := serve.NewRouter(engines, cfg)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		rt := srv.Router()
		fmt.Fprintf(out, "routing %d shards: %d nodes, %d edges; backend %s\n", rt.Shards(), rt.NumNodes(), rt.NumEdges(), cfg.Backend)
		fmt.Fprintf(out, "serving on http://%s\n", ln.Addr())
		return serveLoop(ctx, out, srv, ln, *drainTimeout)
	}

	srv, err := serve.New(ds, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	eff := srv.Config()
	fmt.Fprintf(out, "dataset %s: %d nodes, %d edges; backend %s\n", dir, ds.NumNodes(), ds.NumEdges(), eff.Backend)
	if ds.HasFeatures() {
		fmt.Fprintf(out, "features: %d-dim f32 per node; request them with POST /v1/sample?features=true\n", ds.FeatureDim())
	}
	if ds.HasLabels() {
		fmt.Fprintf(out, "labels: %d classes per node (training datasets carry the full label file)\n", ds.NumClasses())
	}
	if ds.IsSharded() {
		lo, hi := ds.ShardRange()
		fmt.Fprintf(out, "dataset is shard %d/%d (nodes [%d,%d)): serving /v1/shard/* for a router\n",
			ds.ShardIndex(), ds.NumShards(), lo, hi)
	}
	fmt.Fprintf(out, "serving on http://%s (%d workers, queue %d, window %v)\n",
		ln.Addr(), eff.Core.Threads, eff.QueueDepth, eff.BatchWindow)
	return serveLoop(ctx, out, srv, ln, *drainTimeout)
}

// server is the surface the drain loop needs; serve.Server and
// serve.RouterServer both provide it.
type server interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
	IOStats() core.IOStats
}

// serveLoop serves until SIGINT/SIGTERM (or ctx is canceled), then
// drains gracefully. The first signal stops admission and lets
// in-flight requests finish (bounded by drainTimeout); a second signal
// force-cancels.
func serveLoop(ctx context.Context, out io.Writer, srv server, ln net.Listener, drainTimeout time.Duration) error {
	sigCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-sigCtx.Done():
	}
	stop() // restore default handling: a second signal kills the drain
	fmt.Fprintf(out, "signal received, draining (timeout %v) ...\n", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutErr := srv.Shutdown(drainCtx)
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	st := srv.IOStats()
	fmt.Fprintf(out, "drained; final io %+v\n", st)
	if shutErr != nil {
		return fmt.Errorf("drain incomplete, outstanding requests were canceled: %w", shutErr)
	}
	return nil
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
	switch strings.ToLower(name) {
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
