package serve

import (
	"context"
	"sync"

	"ringsampler/internal/core"
)

// request tracks the fan-out/fan-in of one API call across its jobs:
// the first error wins, and done closes when the last job reports in.
// The first error also cancels the context the request's jobs carry,
// so sibling jobs still queued behind it are skipped (dead-context
// check) instead of burning worker time on a response that is already
// doomed.
type request struct {
	cancel context.CancelFunc
	// batches[i] is chunk i's result, written by whoever ran the chunk
	// before it reports in; read only after done closes.
	batches []*core.Batch

	mu     sync.Mutex
	err    error
	remain int
	done   chan struct{}
}

func newRequest(jobs int, cancel context.CancelFunc) *request {
	return &request{
		cancel:  cancel,
		batches: make([]*core.Batch, jobs),
		remain:  jobs,
		done:    make(chan struct{}),
	}
}

func (r *request) jobDone(err error) {
	r.mu.Lock()
	first := err != nil && r.err == nil
	if first {
		r.err = err
	}
	r.remain--
	last := r.remain == 0
	r.mu.Unlock()
	if first {
		// First error wins and is already recorded, so canceling the
		// siblings here can never replace it with context.Canceled.
		r.cancel()
	}
	if last {
		close(r.done)
	}
}
