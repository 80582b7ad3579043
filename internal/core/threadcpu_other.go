//go:build !linux

package core

// threadCPU reports per-thread CPU time on Linux only; elsewhere the
// worker CPU counters stay zero.
func threadCPU() (user, sys int64) { return 0, 0 }
