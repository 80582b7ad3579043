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
// bundle over one (possibly shard) dataset, behind the shard seam. It
// leases workers from a lazily grown free list, retiring one a failed
// call left broken — the serve pool's retirement discipline, with one
// worker per concurrent router call instead of a fixed pinned set.
type Local struct {
	s    *core.Sampler
	info Info

	mu      sync.Mutex
	idle    []*core.Worker
	nextID  int
	retired core.IOStats
	closed  bool
}

// NewLocal opens a Local engine over ds with its own sampler (caches
// built per the config, restricted to owned nodes on a shard dataset).
// ds stays caller-owned and must outlive the engine.
func NewLocal(ds *storage.Dataset, cfg core.Config, backend uring.Backend) (*Local, error) {
	s, err := core.New(ds, cfg, backend)
	if err != nil {
		return nil, err
	}
	return &Local{s: s, info: InfoOf(ds)}, nil
}

// Info implements Engine.
func (l *Local) Info() Info { return l.info }

// acquire leases an idle worker or creates one.
func (l *Local) acquire() (*core.Worker, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, fmt.Errorf("shard: engine %d/%d closed", l.info.Index, l.info.Total)
	}
	if n := len(l.idle); n > 0 {
		w := l.idle[n-1]
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return w, nil
	}
	id := l.nextID
	l.nextID++
	l.mu.Unlock()
	return l.s.NewWorker(id)
}

// release returns a worker to the free list, or retires it (folding its
// counters into the engine's) when a failed call left its rings
// unprovably empty.
func (l *Local) release(w *core.Worker) {
	if w == nil {
		return
	}
	l.mu.Lock()
	if w.Broken() || l.closed {
		l.retired.Add(w.IOStats())
		l.mu.Unlock()
		w.Close()
		return
	}
	l.idle = append(l.idle, w)
	l.mu.Unlock()
}

// SampleLayer implements Engine via core.Worker.SampleLayer.
func (l *Local) SampleLayer(ctx context.Context, frontier []uint32, p core.LayerParams) (*core.Layer, uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	w, err := l.acquire()
	if err != nil {
		return nil, 0, err
	}
	layer, state, err := w.SampleLayer(frontier, p)
	l.release(w)
	return layer, state, err
}

// Features implements Engine via core.Worker.FetchFeatures.
func (l *Local) Features(ctx context.Context, nodes []uint32) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w, err := l.acquire()
	if err != nil {
		return nil, err
	}
	out, err := w.FetchFeatures(nodes)
	l.release(w)
	return out, err
}

// Stats implements Engine: retired plus idle workers' counters. Workers
// leased at the instant of the call are excluded until released, so a
// quiescent engine reports exact totals.
func (l *Local) Stats() core.IOStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.retired
	for _, w := range l.idle {
		st.Add(w.IOStats())
	}
	return st
}

// Close retires every idle worker. Leased workers are retired as they
// are released.
func (l *Local) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	idle := l.idle
	l.idle = nil
	for _, w := range idle {
		l.retired.Add(w.IOStats())
	}
	l.mu.Unlock()
	var err error
	for _, w := range idle {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
