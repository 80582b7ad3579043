package shard

import (
	"context"
	"fmt"
	"sync"

	"ringsampler/internal/core"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// Local is the in-process Engine: today's storage + cache + ring-worker
// bundle over one (possibly shard) dataset, behind the shard seam. Its
// calls run on a core.Pool of Config.Threads workers — the same
// lifecycle, retirement and CPU accounting as the epoch runner and the
// serving pool — so however many router calls arrive at once, the
// engine holds at most Config.Threads workers (and rings) at a time. A
// call waits for a free worker or for its context to end.
type Local struct {
	info Info
	jobs chan core.Job
	pool *core.Pool

	// Close sets closed under mu, then waits for calls, which count in
	// under mu only while it is unset, before it closes jobs — so no
	// call sends on a closed channel.
	mu     sync.Mutex
	closed bool
	calls  sync.WaitGroup
}

// NewLocal opens a Local engine over ds with its own sampler (caches
// built per the config, restricted to owned nodes on a shard dataset)
// and starts its Config.Threads workers. ds stays caller-owned and must
// outlive the engine.
func NewLocal(ds *storage.Dataset, cfg core.Config, backend uring.Backend) (*Local, error) {
	s, err := core.New(ds, cfg, backend)
	if err != nil {
		return nil, err
	}
	jobs := make(chan core.Job)
	return &Local{info: infoOf(ds), jobs: jobs, pool: s.NewPool(cfg.Threads, jobs)}, nil
}

// Info implements Engine.
func (l *Local) Info() Info { return l.info }

// do runs fn on one of the engine's workers once one is free, unless
// ctx ends first or the engine is closed.
func (l *Local) do(ctx context.Context, fn func(w *core.Worker) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	closed := l.closed
	if !closed {
		l.calls.Add(1)
	}
	l.mu.Unlock()
	if closed {
		return fmt.Errorf("shard: engine %d/%d closed", l.info.Index, l.info.Total)
	}
	defer l.calls.Done()
	done := make(chan error, 1)
	select {
	case l.jobs <- core.Job{Run: fn, Done: func(err error) { done <- err }}:
		return <-done
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SampleLayer implements Engine via core.Worker.SampleLayer.
func (l *Local) SampleLayer(ctx context.Context, frontier []uint32, p core.LayerParams) (layer *core.Layer, state uint64, err error) {
	err = l.do(ctx, func(w *core.Worker) (err error) {
		layer, state, err = w.SampleLayer(frontier, p)
		return err
	})
	return layer, state, err
}

// Features implements Engine via core.Worker.FetchFeatures.
func (l *Local) Features(ctx context.Context, nodes []uint32) (out []byte, err error) {
	err = l.do(ctx, func(w *core.Worker) (err error) {
		out, err = w.FetchFeatures(nodes)
		return err
	})
	return out, err
}

// Stats implements Engine: every worker's counters as of its last call,
// retired workers included, with the CPU time of the jobs they ran.
func (l *Local) Stats() core.IOStats { return l.pool.Stats() }

// Close stops taking calls, waits for the ones in progress, and
// retires the workers.
func (l *Local) Close() error {
	l.mu.Lock()
	first := !l.closed
	l.closed = true
	l.mu.Unlock()
	if first {
		l.calls.Wait()
		close(l.jobs)
	}
	l.pool.Close()
	return nil
}
