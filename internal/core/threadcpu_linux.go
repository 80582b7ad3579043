//go:build linux

package core

import "syscall"

// threadCPU returns the CPU time the calling OS thread has consumed so
// far, split into user and system nanoseconds (getrusage RUSAGE_THREAD).
// Zeros when the kernel refuses the call.
func threadCPU() (user, sys int64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_THREAD, &ru) != nil {
		return 0, 0
	}
	return ru.Utime.Nano(), ru.Stime.Nano()
}
