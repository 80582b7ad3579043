package core

// ThreadClock measures the CPU the calling OS thread spends on a
// worker's behalf: started when the worker is, it stamps the thread's
// user and system time since then onto the worker's stats. Readings
// from two threads mean nothing together, so only a goroutine holding
// runtime.LockOSThread from Start to Stamp may use one — a Pool slot
// does.
type ThreadClock struct{ user0, sys0 int64 }

// StartThreadClock reads the calling thread's CPU time as the baseline.
func StartThreadClock() ThreadClock {
	user, sys := threadCPU()
	return ThreadClock{user, sys}
}

// Stamp returns st with UserCPUNanos/SysCPUNanos set to the thread's
// CPU time since the clock started.
func (c ThreadClock) Stamp(st IOStats) IOStats {
	user, sys := threadCPU()
	st.UserCPUNanos, st.SysCPUNanos = user-c.user0, sys-c.sys0
	return st
}
