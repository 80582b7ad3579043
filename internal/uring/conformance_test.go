package uring

import (
	"bytes"
	"errors"
	"os"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// This file executes the Ring contract (see the Ring interface docs)
// against every backend: sim, pool, real io_uring when Probe() passes,
// and fault-injected wrappers over sim and pool. One fixed read plan is
// driven through a consumer-side retry loop; the assembled bytes must
// be identical to the file contents for every backend, every
// completion must arrive exactly once, and results must stay within
// the [negated errno, len(buf)] convention.

// confRead is one planned read of the conformance plan.
type confRead struct {
	off int64
	n   int
}

// conformancePlan is a fixed scattered-read plan over a file of
// fileEntries u32 entries: adjacent runs, single entries, odd spans,
// and a large tail read — deterministic, no RNG.
func conformancePlan(fileEntries int) []confRead {
	var plan []confRead
	for i := 0; i+9 < fileEntries; i += 7 {
		n := 4 * (1 + i%5)
		plan = append(plan, confRead{off: int64(i) * 4, n: n})
	}
	plan = append(plan, confRead{off: 0, n: 4 * (fileEntries / 2)})
	return plan
}

// driveConformance runs the plan through r with the same bounded
// retry-with-resubmit discipline the engine uses and returns each
// request's assembled bytes. It fails the test on contract violations:
// duplicate or unknown completion IDs, overlong results, or retry
// budgets exhausted by a backend that should not need them.
func driveConformance(t *testing.T, r Ring, plan []confRead, maxRetries int) [][]byte {
	t.Helper()
	type state struct {
		off      int64
		pos      int
		attempts int
	}
	bufs := make([][]byte, len(plan))
	sts := make([]state, len(plan))
	for i, p := range plan {
		bufs[i] = make([]byte, p.n)
		sts[i] = state{off: p.off}
	}
	outstanding := make(map[uint64]bool)
	var retryQ []int
	next, inflight, completed := 0, 0, 0
	for completed < len(plan) {
		staged := 0
		for len(retryQ) > 0 {
			id := retryQ[0]
			st := &sts[id]
			if !r.PrepRead(uint64(id), st.off, bufs[id][st.pos:]) {
				break
			}
			retryQ = retryQ[1:]
			outstanding[uint64(id)] = true
			staged++
		}
		if len(retryQ) == 0 {
			for next < len(plan) {
				st := &sts[next]
				if !r.PrepRead(uint64(next), st.off, bufs[next][st.pos:]) {
					break
				}
				outstanding[uint64(next)] = true
				next++
				staged++
			}
		}
		if staged > 0 {
			if _, err := r.Submit(); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			inflight += staged
		}
		cqes, err := r.Wait(1)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		for _, c := range cqes {
			if !outstanding[c.ID] {
				t.Fatalf("completion for ID %d that was not in flight", c.ID)
			}
			delete(outstanding, c.ID)
			st := &sts[c.ID]
			remain := len(bufs[c.ID]) - st.pos
			switch {
			case c.Res < 0:
				errno := syscall.Errno(-c.Res)
				if errno != syscall.EINTR && errno != syscall.EAGAIN {
					t.Fatalf("ID %d: non-transient errno %v from an in-bounds read", c.ID, errno)
				}
				if st.attempts++; st.attempts > maxRetries {
					t.Fatalf("ID %d: retry budget exhausted on transient errnos", c.ID)
				}
				retryQ = append(retryQ, int(c.ID))
			case int(c.Res) > remain:
				t.Fatalf("ID %d: overlong result %d for %d-byte window", c.ID, c.Res, remain)
			case int(c.Res) == remain:
				completed++
			default:
				st.off += int64(c.Res)
				st.pos += int(c.Res)
				if st.attempts++; st.attempts > maxRetries {
					t.Fatalf("ID %d: retry budget exhausted on short reads", c.ID)
				}
				retryQ = append(retryQ, int(c.ID))
			}
		}
		inflight -= len(cqes)
	}
	if inflight != 0 || len(outstanding) != 0 {
		t.Fatalf("drained with inflight=%d, outstanding=%d", inflight, len(outstanding))
	}
	return bufs
}

// conformanceBackends enumerates every constructible backend as a
// (name, open) pair; fault-wrapped variants cover increasingly nasty
// plans, all seeded and deterministic.
func conformanceBackends(t *testing.T) []struct {
	name string
	open func(f *os.File) (Ring, error)
} {
	t.Helper()
	const entries = 16
	wrap := func(be Backend, plan FaultPlan) func(f *os.File) (Ring, error) {
		return func(f *os.File) (Ring, error) {
			inner, err := New(be, f, entries)
			if err != nil {
				return nil, err
			}
			return NewFault(inner, plan)
		}
	}
	plain := func(be Backend) func(f *os.File) (Ring, error) {
		return func(f *os.File) (Ring, error) { return New(be, f, entries) }
	}
	mild := FaultPlan{Seed: 1, ShortReadRate: 0.05, TransientRate: 0.02, RejectRate: 0.05, DelayRate: 0.1}
	nasty := FaultPlan{Seed: 2, ShortReadRate: 0.25, TransientRate: 0.15, RejectRate: 0.2, DelayRate: 0.3, MaxDelay: 5}
	list := []struct {
		name string
		open func(f *os.File) (Ring, error)
	}{
		{"sim", plain(BackendSim)},
		{"pool", plain(BackendPool)},
		{"fault-sim-mild", wrap(BackendSim, mild)},
		{"fault-sim-nasty", wrap(BackendSim, nasty)},
		{"fault-pool-mild", wrap(BackendPool, mild)},
		{"fault-pool-nasty", wrap(BackendPool, nasty)},
	}
	if Probe().Ring {
		list = append(list,
			struct {
				name string
				open func(f *os.File) (Ring, error)
			}{"io_uring", plain(BackendIOURing)},
			struct {
				name string
				open func(f *os.File) (Ring, error)
			}{"fault-io_uring", wrap(BackendIOURing, mild)},
		)
	} else {
		t.Log("io_uring unavailable; real backend skipped")
	}
	return list
}

// TestRingConformance drives the fixed plan through every backend and
// asserts byte-identical assembled reads.
func TestRingConformance(t *testing.T) {
	const n = 512
	f := testFile(t, n)
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	plan := conformancePlan(n)
	want := make([][]byte, len(plan))
	for i, p := range plan {
		want[i] = raw[p.off : p.off+int64(p.n)]
	}
	for _, bk := range conformanceBackends(t) {
		t.Run(bk.name, func(t *testing.T) {
			r, err := bk.open(f)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got := driveConformance(t, r, plan, 64)
			for i := range plan {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("request %d (off %d, %d bytes): bytes differ from file contents",
						i, plan[i].off, plan[i].n)
				}
			}
			if st, ok := Faults(r); ok {
				t.Logf("injected faults: %+v (total %d)", st, st.Total())
			}
		})
	}
}

// TestRingConformanceEOF pins the short-read-at-EOF convention: a read
// spanning the end of the file completes with the truncated byte count
// and a valid prefix on every backend.
func TestRingConformanceEOF(t *testing.T) {
	const n = 8
	f := testFile(t, n)
	raw, _ := os.ReadFile(f.Name())
	backends := []Backend{BackendSim, BackendPool}
	if Probe().Ring {
		backends = append(backends, BackendIOURing)
	}
	for _, be := range backends {
		t.Run(string(be), func(t *testing.T) {
			r, err := New(be, f, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			buf := make([]byte, 16)
			if !r.PrepRead(1, int64(n*4-8), buf) {
				t.Fatal("PrepRead refused on an idle ring")
			}
			if _, err := r.Submit(); err != nil {
				t.Fatal(err)
			}
			cqes, err := r.Wait(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(cqes) != 1 || cqes[0].Res != 8 {
				t.Fatalf("EOF-spanning read: cqes = %+v, want one Res=8", cqes)
			}
			if !bytes.Equal(buf[:8], raw[len(raw)-8:]) {
				t.Fatal("EOF-spanning read returned wrong prefix bytes")
			}
		})
	}
}

// TestRingConformanceIdlePrep pins the no-refusal-while-idle guarantee
// every retry loop depends on.
func TestRingConformanceIdlePrep(t *testing.T) {
	f := testFile(t, 16)
	for _, bk := range conformanceBackends(t) {
		t.Run(bk.name, func(t *testing.T) {
			r, err := bk.open(f)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			buf := make([]byte, 4)
			for i := 0; i < 50; i++ {
				if !r.PrepRead(uint64(i), 0, buf) {
					t.Fatalf("iteration %d: PrepRead refused on an idle ring", i)
				}
				if _, err := r.Submit(); err != nil {
					t.Fatal(err)
				}
				for done := 0; done < 1; {
					cqes, err := r.Wait(1)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range cqes {
						if c.Res != 4 {
							// Injected transient/short results still count as
							// the completion; resubmit to drain properly.
							if !r.PrepRead(c.ID, 0, buf) {
								t.Fatal("PrepRead refused during retry drain")
							}
							if _, err := r.Submit(); err != nil {
								t.Fatal(err)
							}
							continue
						}
						done++
					}
				}
			}
		})
	}
}

// TestReadAllConformance runs the batch driver over every backend, the
// fault-injecting ones included (short reads, -EINTR/-EAGAIN, delayed
// and reordered completions, SQ-full refusals): every destination must
// end byte-identical to the file, every byte delivered once, and the
// ring idle. The windows case reads aligned windows, one of them past
// EOF with only its head needed, through the align-resuming path.
func TestReadAllConformance(t *testing.T) {
	const n, align = 509, 64 // a file end inside a window
	f := testFile(t, n)
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(raw))
	for _, bk := range conformanceBackends(t) {
		t.Run(bk.name, func(t *testing.T) {
			r, err := bk.open(f)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var reads []Read
			var want int64
			for _, p := range conformancePlan(n) {
				reads = append(reads, Read{Off: p.off, Buf: make([]byte, p.n)})
				want += int64(p.n)
			}
			moved, err := ReadAll(r, reads, 0, testRetries)
			if err != nil {
				t.Fatal(err)
			}
			for _, rd := range reads {
				if !bytes.Equal(rd.Buf, raw[rd.Off:rd.Off+int64(len(rd.Buf))]) {
					t.Fatalf("read at offset %d (%d bytes): bytes differ from the file", rd.Off, len(rd.Buf))
				}
			}
			if moved != want {
				t.Fatalf("moved %d bytes for %d requested", moved, want)
			}
			assertIdle(t, r)

			var windows []Read
			for lo := int64(0); lo < size; lo += 3 * align {
				w := Read{Off: lo, Buf: make([]byte, 2*align)}
				if end := lo + 2*align; end > size {
					w.Need = int(size - lo)
				}
				windows = append(windows, w)
			}
			if windows[len(windows)-1].Need == 0 {
				t.Fatal("no window straddles the end of the file")
			}
			if _, err := ReadAll(r, windows, align, testRetries); err != nil {
				t.Fatal(err)
			}
			for _, w := range windows {
				end := min(w.Off+int64(len(w.Buf)), size)
				if !bytes.Equal(w.Buf[:end-w.Off], raw[w.Off:end]) {
					t.Fatalf("window at offset %d: bytes differ from the file", w.Off)
				}
			}
			assertIdle(t, r)
			if st, ok := Faults(r); ok {
				t.Logf("injected faults: %+v (total %d)", st, st.Total())
			}
		})
	}
}

// testRetries is the retry bound of the ReadAll conformance runs: at the
// nasty plan's rates (0.4 of attempts transient or short) the default
// bound can exhaust legitimately, so it is raised as fault harnesses do.
const testRetries = 64

// TestReadAllRetryBound: a read that only ever completes -EINTR/-EAGAIN
// is attempted exactly retries+1 times, then fails the batch naming the
// errno and the attempts, with nothing in flight; 0 fails at once.
func TestReadAllRetryBound(t *testing.T) {
	f := testFile(t, 64)
	for _, retries := range []int{0, 3} {
		inner, err := New(BackendSim, f, 4)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewFault(inner, FaultPlan{Seed: 5, TransientRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReadAll(r, []Read{{Off: 8, Buf: make([]byte, 16)}}, 0, retries)
		if !errors.Is(err, syscall.EINTR) && !errors.Is(err, syscall.EAGAIN) {
			t.Fatalf("retries %d: error %v, want a transient errno", retries, err)
		}
		if want := "after " + strconv.Itoa(retries+1) + " attempts"; !strings.Contains(err.Error(), want) {
			t.Fatalf("retries %d: error %q does not say %q", retries, err, want)
		}
		if st, _ := Faults(r); st.Transient != int64(retries+1) {
			t.Fatalf("retries %d: %d transient completions, want %d", retries, st.Transient, retries+1)
		}
		assertIdle(t, r)
		r.Close()
	}
}

// assertIdle checks that r holds nothing in flight: a fault ring's own
// counters are inspected, and any ring must yield nothing on a poll.
func assertIdle(t *testing.T, r Ring) {
	t.Helper()
	if fr, ok := r.(*faultRing); ok && (fr.inflight != 0 || fr.innerInflight != 0 || len(fr.held) != 0) {
		t.Fatalf("fault ring still holds %d requests (%d below it, %d held)", fr.inflight, fr.innerInflight, len(fr.held))
	}
	if cqes, err := r.Wait(0); err != nil || len(cqes) != 0 {
		t.Fatalf("idle ring polled %d completions (err %v)", len(cqes), err)
	}
}

// TestReadAllHardError: a hard -EIO anywhere in the batch fails ReadAll
// with an error that names the failing offset and unwraps to the errno,
// and nothing is left in flight — on every inner backend.
func TestReadAllHardError(t *testing.T) {
	const n = 512
	f := testFile(t, n)
	backends := []Backend{BackendSim, BackendPool}
	if Probe().Ring {
		backends = append(backends, BackendIOURing)
	}
	for _, be := range backends {
		t.Run(string(be), func(t *testing.T) {
			inner, err := New(be, f, 16)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewFault(inner, FaultPlan{Seed: 3, HardErrRate: 0.05, ShortReadRate: 0.1, DelayRate: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var reads []Read
			offsets := map[int64]bool{}
			for _, p := range conformancePlan(n) {
				reads = append(reads, Read{Off: p.off, Buf: make([]byte, p.n)})
				for o := p.off; o < p.off+int64(p.n); o++ {
					offsets[o] = true
				}
			}
			_, err = ReadAll(r, reads, 0, testRetries)
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("ReadAll error %v, want one wrapping EIO", err)
			}
			m := regexp.MustCompile(`at offset (\d+)`).FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("error %q names no offset", err)
			}
			if off, _ := strconv.ParseInt(m[1], 10, 64); !offsets[off] {
				t.Fatalf("error %q names offset %d, which no read requested", err, off)
			}
			if st, _ := Faults(r); st.Hard == 0 {
				t.Fatal("no hard error was injected")
			}
			assertIdle(t, r)
		})
	}
}
