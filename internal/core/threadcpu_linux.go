//go:build linux

package core

import (
	"syscall"
	"unsafe"
)

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU returns the CPU time the calling OS thread has consumed so
// far, split into user and system nanoseconds (getrusage RUSAGE_THREAD).
// The kernel brings getrusage's figure up to date only when the thread
// blocks or at a scheduler tick, so across a job shorter than a tick it
// would miss the job's tail; reading the thread's CPU clock first folds
// in the time run since. Zeros when the kernel refuses the call.
func threadCPU() (user, sys int64) {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_THREAD, &ru) != nil {
		return 0, 0
	}
	return ru.Utime.Nano(), ru.Stime.Nano()
}
