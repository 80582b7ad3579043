// Command serve runs the online sampling service over one dataset
// (-data, required): an HTTP front end that cuts sampling requests into
// the mini-batch chunks the ring workers are built for and admits them
// through a bounded queue to a fixed pool of workers, each locked to an
// OS thread per job, with a Prometheus metrics surface (see DESIGN.md
// §8).
//
//	POST /v1/sample  — {"targets":[...],"fanouts":[...],"seed":N,"features":bool}
//	GET  /healthz    — liveness (503 while draining)
//	GET  /metrics    — Prometheus text format
//
// Samples are drawn uniformly, the one strategy (DESIGN.md §11); a body
// whose "strategy" names anything but "uniform" is refused 400 before
// any work is queued.
//
// With ?features=true (or "features":true in the body) each returned
// batch carries the sampled nodes' raw little-endian f32 vectors,
// fetched through the same ring pipeline as the adjacency reads. The
// dataset must have a feature file, as the checked-in
// benchdata/bench/ogbn-papers-div20000 does; -feature-cache-mb pins the
// hottest nodes' vectors in memory.
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish, new ones
// are refused, and the final I/O counters are flushed to stderr. A
// second signal (or -drain-timeout expiring) force-cancels what is
// left.
//
// Serving throughput and latency are measured by the benchmark harness
// (go run -C cmd/bench . -workload serve_closed; see cmd/bench/README.md).
//
// Usage:
//
//	go run ./cmd/serve -data benchdata/bench/ogbn-papers-div20000 -addr :8080 -threads 8
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
	"syscall"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/serve"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

func main() {
	log.SetFlags(0)
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run serves until ctx is canceled or a SIGINT/SIGTERM arrives, then
// drains.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address")
		data         = fs.String("data", "", "dataset directory (required)")
		threads      = fs.Int("threads", 0, "worker-pool size (0: config default)")
		batch        = fs.Int("batch", 0, "engine mini-batch size / chunking granularity (0: config default)")
		cacheMB      = fs.Int64("cache-mb", 0, "neighbor cache budget in MiB, shortest lists first (0: cache off)")
		featMB       = fs.Int64("feature-cache-mb", 0, "hot-node feature cache budget in MiB (0: cache off)")
		queue        = fs.Int("queue", 0, fmt.Sprintf("admission queue bound in jobs; full queue fast-fails 429 (0: default %d)", serve.DefaultConfig().QueueDepth))
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "max graceful-drain wait on SIGINT/SIGTERM")
		odirect      = fs.Bool("odirect", false, "open the edge file O_DIRECT (falls back to buffered with a logged reason when unsupported)")
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
	if *threads < 0 || *threads > core.MaxThreads {
		return fmt.Errorf("-threads %d must be between 0 (config default) and %d", *threads, core.MaxThreads)
	}
	if *batch < 0 {
		return fmt.Errorf("-batch %d must be non-negative (0: config default)", *batch)
	}
	if *queue < 0 || *queue > serve.MaxQueueDepth {
		return fmt.Errorf("-queue %d must be between 0 (default) and %d", *queue, serve.MaxQueueDepth)
	}
	if *data == "" {
		return errors.New("-data is required: name a dataset directory (cmd/benchprep and cmd/bench make them)")
	}
	ds, err := storage.OpenWith(*data, storage.OpenOptions{Direct: *odirect})
	if err != nil {
		return err
	}
	defer ds.Close()

	cfg := serve.DefaultConfig()
	cfg.Core.CacheBudgetBytes = cacheBytes
	cfg.Core.FeatureCacheBudgetBytes = featCacheBytes
	if *threads > 0 {
		cfg.Core.Threads = *threads
	}
	if *batch > 0 {
		cfg.Core.BatchSize = *batch
	}
	if *queue > 0 {
		cfg.QueueDepth = *queue
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
	fmt.Fprintf(out, "dataset %s: %d nodes, %d edges; backend %s\n", *data, ds.NumNodes(), ds.NumEdges(), uring.Auto())
	if ds.HasFeatures() {
		fmt.Fprintf(out, "features: %d-dim f32 per node; request them with POST /v1/sample?features=true\n", ds.FeatureDim())
	}
	if ds.HasLabels() {
		fmt.Fprintf(out, "labels: %d classes per node (training datasets carry the full label file)\n", ds.NumClasses())
	}
	lists, listBytes, rows, rowBytes := srv.CacheInfo()
	if cacheBytes > 0 {
		fmt.Fprintf(out, "neighbor cache: pinned %d lists / %d B under a %d B budget, shortest first\n", lists, listBytes, cacheBytes)
	}
	if featCacheBytes > 0 {
		fmt.Fprintf(out, "feature cache: pinned %d rows / %d B under a %d B budget\n", rows, rowBytes, featCacheBytes)
	}
	fmt.Fprintf(out, "serving on http://%s (%d workers, queue %d)\n", ln.Addr(), eff.Core.Threads, eff.QueueDepth)
	return serveLoop(ctx, out, srv, ln, *drainTimeout)
}

// serveLoop serves until SIGINT/SIGTERM (or ctx is canceled), then
// drains gracefully. The first signal stops admission and lets
// in-flight requests finish (bounded by drainTimeout); a second signal
// force-cancels.
func serveLoop(ctx context.Context, out io.Writer, srv *serve.Server, ln net.Listener, drainTimeout time.Duration) error {
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
