package uring

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
	"testing"
)

// The Driver is the one read loop of the engine; these tests run it over
// every backend, the fault-injecting ones included (short reads,
// -EINTR/-EAGAIN, delayed and reordered completions, SQ-full refusals),
// and pin the pipeline knobs at the layer that owns them: the ring's
// capacity, the partial wait of the asynchronous pipeline and the
// O_DIRECT scratch bound.

// planReads lays the conformance plan out back to back in one
// destination and returns the reads and the destination's size.
func planReads(fileEntries int) ([]Read, int64) {
	var reads []Read
	var pos int64
	for _, p := range conformancePlan(fileEntries) {
		reads = append(reads, Read{Off: p.off, Pos: pos, Len: int64(p.n)})
		pos += int64(p.n)
	}
	return reads, pos
}

// assertLanded checks that every read's destination holds the file's
// bytes.
func assertLanded(t *testing.T, raw, dst []byte, reads []Read) {
	t.Helper()
	for _, rd := range reads {
		if !bytes.Equal(dst[rd.Pos:rd.Pos+rd.Len], raw[rd.Off:rd.Off+rd.Len]) {
			t.Fatalf("read at offset %d (%d bytes): bytes differ from the file", rd.Off, rd.Len)
		}
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

// TestRunConformance: over every backend each destination range ends
// byte-identical to the file, every requested byte is counted once, and
// the ring is idle afterwards. The windowed case reads through the
// O_DIRECT path (on a buffered file, which accepts aligned reads too):
// its last read ends at the end of the file, inside an aligned window
// that reaches past it, so that window completes short and is done once
// the read is covered.
func TestRunConformance(t *testing.T) {
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
			_, faulty := Faults(r)

			reads, n := planReads(n)
			dst := make([]byte, n)
			d := Driver{Ring: r}
			if err := d.Run(dst, reads); err != nil {
				t.Fatal(err)
			}
			assertLanded(t, raw, dst, reads)
			if d.Stats.Reads != int64(len(reads)) || d.Stats.Bytes != n || d.Stats.SlackBytes != 0 {
				t.Fatalf("stats %+v for %d reads of %d bytes", d.Stats, len(reads), n)
			}
			assertIdle(t, r)

			var windows []Read
			var pos, slack int64
			for lo := int64(5); lo < size; lo += 3 * align {
				rd := Read{Off: lo, Pos: pos, Len: min(2*align, size-lo)}
				windows = append(windows, rd)
				pos += rd.Len
				slack += min((rd.Off+rd.Len+align-1)&^(align-1), size) - rd.Off&^(align-1) - rd.Len
			}
			if last := windows[len(windows)-1]; last.Off+last.Len != size || size%align == 0 {
				t.Fatal("no window straddles the end of the file")
			}
			dst = make([]byte, pos)
			wd := Driver{Ring: r, Align: align}
			if err := wd.Run(dst, windows); err != nil {
				t.Fatal(err)
			}
			assertLanded(t, raw, dst, windows)
			// Injected short windows re-read their partial block, so only a
			// fault-free ring moves exactly the aligned windows.
			if wd.Stats.Bytes != pos || (!faulty && wd.Stats.SlackBytes != slack) {
				t.Fatalf("windowed stats %+v, want %d bytes and %d slack", wd.Stats, pos, slack)
			}
			assertIdle(t, r)
			if st, ok := Faults(r); ok {
				t.Logf("injected faults: %+v (total %d)", st, st.Total())
			}
		})
	}
}

// TestRunRetryBound: a read that only ever completes -EINTR/-EAGAIN is
// attempted exactly DefaultRetries+1 times, then fails with an *IOError
// naming the errno and the retries spent, with nothing in flight.
func TestRunRetryBound(t *testing.T) {
	inner, err := New(BackendSim, testFile(t, 64), 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewFault(inner, FaultPlan{Seed: 5, TransientRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d := Driver{Ring: r}
	err = d.Run(make([]byte, 16), []Read{{Off: 8, Len: 16}})
	var ioe *IOError
	if !errors.As(err, &ioe) || ioe.Attempts != DefaultRetries || ioe.Offset != 8 || ioe.Bytes != 16 {
		t.Fatalf("error %v, want an *IOError after %d retries at offset 8", err, DefaultRetries)
	}
	if !errors.Is(err, syscall.EINTR) && !errors.Is(err, syscall.EAGAIN) {
		t.Fatalf("error %v, want a transient errno", err)
	}
	if st, _ := Faults(r); st.Transient != DefaultRetries+1 || d.Stats.TransientErrs != DefaultRetries+1 {
		t.Fatalf("%d transient completions (%d counted), want %d", st.Transient, d.Stats.TransientErrs, DefaultRetries+1)
	}
	assertIdle(t, r)
}

// TestRunEOFIsShortRead: a read at or past the end of the file completes
// with zero bytes, which is a short read like any other — retried until
// the budget runs out, then an *IOError with ShortRead set that unwraps
// to io.ErrUnexpectedEOF, buffered and windowed alike.
func TestRunEOFIsShortRead(t *testing.T) {
	f := testFile(t, 64)
	for _, align := range []int{0, 64} {
		r, err := New(BackendSim, f, 4)
		if err != nil {
			t.Fatal(err)
		}
		d := Driver{Ring: r, Align: align}
		err = d.Run(make([]byte, 8), []Read{{Off: 512, Len: 8}})
		var ioe *IOError
		if !errors.As(err, &ioe) || !ioe.ShortRead || ioe.Errno != 0 || ioe.Attempts != DefaultRetries || ioe.Offset != 512 {
			t.Fatalf("align %d: error %v, want a short-read *IOError at offset 512 after %d retries", align, err, DefaultRetries)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) || d.Stats.ShortReads != DefaultRetries+1 || d.Stats.Retries != DefaultRetries {
			t.Fatalf("align %d: error %v with stats %+v, want io.ErrUnexpectedEOF after %d short reads", align, err, d.Stats, DefaultRetries+1)
		}
		r.Close()
	}
}

// TestRunHardError: a hard -EIO anywhere in the batch fails the Run with
// an *IOError that names a requested offset and unwraps to the errno,
// and nothing is left in flight — on every inner backend.
func TestRunHardError(t *testing.T) {
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
			reads, size := planReads(n)
			d := Driver{Ring: r}
			err = d.Run(make([]byte, size), reads)
			var ioe *IOError
			if !errors.As(err, &ioe) || !errors.Is(err, syscall.EIO) {
				t.Fatalf("error %v, want an *IOError wrapping EIO", err)
			}
			requested := false
			for _, rd := range reads {
				requested = requested || ioe.Offset >= rd.Off && ioe.Offset+ioe.Bytes <= rd.Off+rd.Len
			}
			if !requested {
				t.Fatalf("error %v names %d bytes at offset %d, which no read requested", err, ioe.Bytes, ioe.Offset)
			}
			if st, _ := Faults(r); st.Hard == 0 {
				t.Fatal("no hard error was injected")
			}
			if d.Broken() {
				t.Fatal("a drained driver reports itself broken")
			}
			assertIdle(t, r)
		})
	}
}

// TestRunStallGuard: a ring that refuses every prep while idle breaks
// its contract; the Run fails with ErrRingStalled instead of spinning,
// and the driver reports itself broken.
func TestRunStallGuard(t *testing.T) {
	inner, err := New(BackendSim, testFile(t, 16), 4)
	if err != nil {
		t.Fatal(err)
	}
	d := Driver{Ring: refusingRing{inner}}
	if err := d.Run(make([]byte, 4), []Read{{Len: 4}}); !errors.Is(err, ErrRingStalled) || !d.Broken() {
		t.Fatalf("error %v (broken %v), want ErrRingStalled from a broken driver", err, d.Broken())
	}
}

type refusingRing struct{ Ring }

func (refusingRing) PrepRead(uint64, int64, []byte) bool { return false }

// countingRing watches a driver from below: the reads in flight at every
// prep, and where each prep's memory lies — in arena, in dst, or
// elsewhere (a heap slot).
type countingRing struct {
	Ring
	arena, dst             []byte
	staged, inflight, most int
	partialWait            bool // a Wait asked for fewer than were in flight
	inArena, inDst, heap   int
	prepped                func()
}

func (r *countingRing) PrepRead(id uint64, off int64, buf []byte) bool {
	if !r.Ring.PrepRead(id, off, buf) {
		return false
	}
	r.staged++
	r.most = max(r.most, r.staged+r.inflight)
	switch {
	case sliceWithin(r.arena, buf):
		r.inArena++
	case sliceWithin(r.dst, buf):
		r.inDst++
	default:
		r.heap++
	}
	if r.prepped != nil {
		r.prepped()
	}
	return true
}

func (r *countingRing) Submit() (int, error) {
	n, err := r.Ring.Submit()
	r.inflight += r.staged
	r.staged = 0
	return n, err
}

func (r *countingRing) Wait(min int) ([]CQE, error) {
	r.partialWait = r.partialWait || min < r.inflight
	cqes, err := r.Ring.Wait(min)
	r.inflight -= len(cqes)
	return cqes, err
}

// pipelineBackends are the backends that run here, each behind a
// countingRing.
func pipelineBackends(t *testing.T, f *os.File, entries int) map[string]*countingRing {
	backends := []Backend{BackendSim, BackendPool}
	if Probe().Ring {
		backends = append(backends, BackendIOURing)
	}
	rings := map[string]*countingRing{}
	for _, be := range backends {
		r, err := New(be, f, entries)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		rings[string(be)] = &countingRing{Ring: r}
	}
	return rings
}

// TestRunRingCapacity: the ring's size is the one bound on reads in
// flight. The driver fills at least one SQ's worth and never more than
// the completion queue holds (2 × Entries, io_uring's default, which
// pool and sim match); a 1-entry ring still completes, one read at a
// time.
func TestRunRingCapacity(t *testing.T) {
	f := testFile(t, 512)
	raw, _ := os.ReadFile(f.Name())
	for _, entries := range []int{1, 32} {
		t.Run(fmt.Sprintf("entries=%d", entries), func(t *testing.T) {
			for name, r := range pipelineBackends(t, f, entries) {
				t.Run(name, func(t *testing.T) {
					reads, n := planReads(512)
					dst := make([]byte, n)
					d := Driver{Ring: r}
					if err := d.Run(dst, reads); err != nil {
						t.Fatal(err)
					}
					assertLanded(t, raw, dst, reads)
					if r.most < entries || r.most > 2*entries {
						t.Fatalf("%d reads in flight at most, want %d to %d",
							r.most, entries, 2*entries)
					}
				})
			}
		})
	}
}

// TestRunWaitsForPartOfWindow: once the plan outgrows the ring, the
// driver waits for only part of the window in flight, so it can stage
// the next group while the rest of this one completes (the asynchronous
// pipeline, paper Fig 3b).
func TestRunWaitsForPartOfWindow(t *testing.T) {
	f := testFile(t, 512)
	raw, _ := os.ReadFile(f.Name())
	for name, r := range pipelineBackends(t, f, 8) {
		reads, n := planReads(512)
		dst := make([]byte, n)
		d := Driver{Ring: r}
		if err := d.Run(dst, reads); err != nil {
			t.Fatal(err)
		}
		assertLanded(t, raw, dst, reads)
		if !r.partialWait {
			t.Fatalf("%s: every Wait asked for all the reads in flight", name)
		}
	}
}

// TestRunDirectWindowsInArena: an O_DIRECT window that fits a chunk is
// read into the arena, a bigger one into a heap slot, and a buffered
// read straight into its destination, whatever the arena.
func TestRunDirectWindowsInArena(t *testing.T) {
	f := testFile(t, 16<<10) // 64 KiB
	raw, _ := os.ReadFile(f.Name())
	arena := AlignedSlice(64<<10, 4096)
	small, n := planReads(512)
	big := []Read{{Off: 100, Len: 3 * directChunk}, {Off: 7, Pos: 3 * directChunk, Len: 40}}
	for _, c := range []struct {
		name                 string
		align                int
		dst                  []byte
		reads                []Read
		inArena, inDst, heap int
	}{
		{"buffered", 0, make([]byte, n), small, 0, len(small), 0},
		{"direct-windows", 512, make([]byte, 3*directChunk+40), big, 1, 0, 1},
	} {
		for name, r := range pipelineBackends(t, f, 16) {
			r.arena, r.dst = arena, c.dst
			d := Driver{Ring: r, Align: c.align, Arena: arena}
			if err := d.Run(c.dst, c.reads); err != nil {
				t.Fatalf("%s %s: %v", c.name, name, err)
			}
			assertLanded(t, raw, c.dst, c.reads)
			if r.inArena != c.inArena || r.inDst != c.inDst || r.heap != c.heap {
				t.Fatalf("%s %s: %d preps into the arena, %d into the destination, %d into heap slots; want %d, %d, %d",
					c.name, name, r.inArena, r.inDst, r.heap, c.inArena, c.inDst, c.heap)
			}
		}
	}
}

// TestRunDirectScratchBound: a batch whose O_DIRECT windows add up to
// several times the scratch bound completes with the heap scratch held
// within the bound at every prep, and the bytes land.
func TestRunDirectScratchBound(t *testing.T) {
	f := testFile(t, 64<<10) // 256 KiB
	raw, _ := os.ReadFile(f.Name())
	const window = 96 << 10
	var reads []Read
	var pos int64
	for i := int64(0); pos < 3*directScratch; i++ {
		rd := Read{Off: i * 4097 % (int64(len(raw)) - window), Pos: pos, Len: window - 600}
		reads = append(reads, rd)
		pos += rd.Len
	}
	dst := make([]byte, pos)
	for name, r := range pipelineBackends(t, f, 64) {
		d := Driver{Ring: r, Align: 512}
		var most int64
		r.prepped = func() {
			var held int64
			for _, s := range d.slots[d.chunks:] {
				held += int64(len(s.buf))
			}
			most = max(most, held)
		}
		if err := d.Run(dst, reads); err != nil {
			t.Fatal(err)
		}
		assertLanded(t, raw, dst, reads)
		if most > directScratch || most < directScratch/2 {
			t.Fatalf("%s: %d bytes of scratch held for %d bytes of windows, bound %d", name, most, pos, directScratch)
		}
	}
}
