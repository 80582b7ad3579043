// Package memctl is the repo's cgroup substitute: an explicit memory
// budget the engine's in-memory structures (the neighbor and feature
// caches) are charged against. Exceeding the budget yields ErrOOM, so
// a structure that does not fit is refused up front.
package memctl

import (
	"errors"
	"fmt"
)

// ErrOOM marks an allocation that exceeded the budget.
var ErrOOM = errors.New("memctl: out of memory")

// Budget is a memory accountant. A limit of 0 means unlimited. Not
// safe for concurrent use; each structure is built by one goroutine.
type Budget struct {
	limit int64
	used  int64
}

// New returns a budget with the given byte limit (0 = unlimited).
func New(limit int64) *Budget {
	return &Budget{limit: limit}
}

// Charge allocates n bytes, failing with ErrOOM if the budget would be
// exceeded. On failure nothing is charged.
func (b *Budget) Charge(n int64) error {
	if n < 0 {
		return fmt.Errorf("memctl: negative charge %d", n)
	}
	if b.limit > 0 && b.used+n > b.limit {
		return fmt.Errorf("%w: %d used + %d requested > %d limit", ErrOOM, b.used, n, b.limit)
	}
	b.used += n
	return nil
}

// Used returns the current charge.
func (b *Budget) Used() int64 { return b.used }

// Limit returns the configured limit (0 = unlimited).
func (b *Budget) Limit() int64 { return b.limit }

// Remaining returns how much can still be charged, or -1 if unlimited.
func (b *Budget) Remaining() int64 {
	if b.limit <= 0 {
		return -1
	}
	return b.limit - b.used
}
