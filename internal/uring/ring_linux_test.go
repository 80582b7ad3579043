//go:build linux

package uring

import (
	"runtime"
	"sync/atomic"
	"testing"
)

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
