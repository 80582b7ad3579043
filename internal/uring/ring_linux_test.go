//go:build linux

package uring

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestSQPollFullGroupsNeverStall: an SQPOLL ring driven the way the
// engine drives it — stage until the ring refuses, publish, reap half
// the window, repeat — must never refuse a PrepRead while idle. The SQ
// thread completes page-cache-hot reads inline and posts their CQEs
// before it publishes sq.head, so user space can harvest every CQE of a
// full-ring group while the published head still shows a full SQ; a
// prep that trusts the head alone then refuses with nothing staged and
// nothing in flight (the engine's ErrRingStalled). Without the
// harvested-means-consumed bound in prep this fails within a few
// hundred groups.
func TestSQPollFullGroupsNeverStall(t *testing.T) {
	if !Probe().SQPoll {
		t.Skip("SQPOLL not grantable in this environment")
	}
	const (
		entries = 512
		groups  = 6000
		total   = groups * entries
		fileN   = 1 << 16
	)
	f := testFile(t, fileN)
	r, err := NewWith(BackendIOURing, f, Options{Entries: entries, SQPoll: true, SQPollIdleMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Request i reads file entry (i*7)%fileN into slot i%slots; a slot is
	// only reused long after its previous read was harvested.
	const slots = 4 * entries
	buf := make([]byte, slots*4)
	next, inflight, completed := 0, 0, 0
	for completed < total {
		staged := 0
		for next < total {
			entry := (next * 7) % fileN
			slot := next % slots
			if !r.PrepRead(uint64(next), int64(entry)*4, buf[slot*4:slot*4+4]) {
				break
			}
			next++
			staged++
		}
		if staged > 0 {
			if _, err := r.Submit(); err != nil {
				t.Fatal(err)
			}
			inflight += staged
		}
		min := 1
		if next < total && inflight > 1 {
			min = inflight / 2
		}
		cqes, err := r.Wait(min)
		if err != nil {
			t.Fatal(err)
		}
		inflight -= len(cqes)
		for _, c := range cqes {
			slot := int(c.ID) % slots
			if got, want := binary.LittleEndian.Uint32(buf[slot*4:]), uint32((int(c.ID)*7)%fileN); c.Res != 4 || got != want {
				t.Fatalf("read %d: CQE %+v, value %d, want Res 4 value %d", c.ID, c, got, want)
			}
		}
		completed += len(cqes)
		if staged == 0 && inflight == 0 && len(cqes) == 0 {
			t.Fatalf("ring refused to stage while idle after %d of %d reads (group %d)", completed, total, completed/entries)
		}
	}
}

// TestRingKeepsDestinationsAlive: between Submit and the Wait that
// harvests its completion, a read's destination must stay GC-reachable
// even when the ring holds the only reference — the kernel writes to
// the raw address. (The per-request map once did this; the pin list
// does now.) A finalizer on the destination observes collection.
func TestRingKeepsDestinationsAlive(t *testing.T) {
	if !Probe().Ring {
		t.Skip("io_uring unavailable")
	}
	f := testFile(t, 1024)
	r, err := New(BackendIOURing, f, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	type dest struct{ b [512]byte }
	var collected atomic.Int32
	// stage allocates destinations the test never references again: two
	// distinct allocations, and a second read further into the first (the
	// case the pin list covers without recording it).
	stage := func() {
		for i := 0; i < 2; i++ {
			d := new(dest)
			runtime.SetFinalizer(d, func(*dest) { collected.Add(1) })
			if !r.PrepRead(uint64(2*i), int64(i)*512, d.b[:256]) || !r.PrepRead(uint64(2*i+1), int64(i)*512+256, d.b[256:]) {
				t.Fatal("read refused while idle")
			}
		}
	}
	stage()
	if n, err := r.Submit(); err != nil || n != 4 {
		t.Fatalf("Submit = %d, %v", n, err)
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if n := collected.Load(); n != 0 {
		t.Fatalf("%d destination(s) collected while their reads were in flight", n)
	}
	for done := 0; done < 4; {
		cqes, err := r.Wait(4 - done)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cqes {
			if c.Res != 256 {
				t.Fatalf("CQE %+v, want Res 256", c)
			}
		}
		done += len(cqes)
	}
	if n := len(r.(*iouRing).pins); n != 0 {
		t.Fatalf("idle ring still pins %d destination(s)", n)
	}
}

// TestPinListStaysSmall: reads spread over one large buffer record one
// pin; destinations cycling through a few allocations are squeezed back
// to one entry per allocation instead of growing per request.
func TestPinListStaysSmall(t *testing.T) {
	if !Probe().Ring {
		t.Skip("io_uring unavailable")
	}
	f := testFile(t, 1024)
	r, err := New(BackendIOURing, f, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ring := r.(*iouRing)

	stage := make([]byte, 4096)
	for i := 0; i < 8; i++ {
		if !r.PrepRead(uint64(i), int64(i)*4, stage[i*4:i*4+4]) {
			t.Fatal("read refused")
		}
	}
	if n := len(ring.pins); n != 1 {
		t.Fatalf("8 ascending reads into one buffer recorded %d pins, want 1", n)
	}

	// Never idle: keep one read in flight while thousands cycle through
	// four scratch buffers.
	slots := [4][]byte{make([]byte, 64), make([]byte, 64), make([]byte, 64), make([]byte, 64)}
	if _, err := r.Submit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*pinCompactAt; i++ {
		for !r.PrepRead(uint64(i), 0, slots[i%4][:4]) {
			if _, err := r.Submit(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Wait(1); err != nil {
				t.Fatal(err)
			}
		}
		if ring.inflight == 0 && ring.staged > 0 {
			if _, err := r.Submit(); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(ring.pins); n > pinCompactAt {
			t.Fatalf("pin list grew to %d entries over 4 recycled buffers", n)
		}
	}
}
