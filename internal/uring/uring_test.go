package uring

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// testFile writes n little-endian u32s (value == index) and opens it.
func testFile(t *testing.T, n int) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.bin")
	buf := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(i))
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestProbeNeverPanics(t *testing.T) {
	// Whatever the environment, Probe must return (not panic) and be
	// stable across calls.
	a := Probe()
	b := Probe()
	if a != b {
		t.Fatalf("Probe unstable: %v then %v", a, b)
	}
	t.Logf("io_uring available: %v", a)
}

func TestPoolBackendAlwaysAvailable(t *testing.T) {
	f := testFile(t, 64)
	r, err := New(BackendPool, f, 8)
	if err != nil {
		t.Fatalf("pool backend must always construct: %v", err)
	}
	defer r.Close()
	if r.Entries() != 8 {
		t.Fatalf("Entries() = %d, want 8", r.Entries())
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	f := testFile(t, 4)
	if _, err := New(Backend("bogus"), f, 8); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestAuto: the backend is probed, never named — io_uring exactly when
// Probe finds a usable ring, the pread pool otherwise, never the sim —
// and a ring opens on it.
func TestAuto(t *testing.T) {
	want := BackendPool
	if Probe().Ring {
		want = BackendIOURing
	}
	if got := Auto(); got != want {
		t.Fatalf("Auto() = %q with Probe() = %s, want %q", got, Probe(), want)
	}
	r, err := New(Auto(), testFile(t, 4), 8)
	if err != nil {
		t.Fatalf("New(Auto()): %v", err)
	}
	r.Close()
}

// TestBackendsReadCorrectly drives every available backend through the
// same batched read workload and checks contents and result codes.
func TestBackendsReadCorrectly(t *testing.T) {
	backends := []Backend{BackendPool, BackendSim}
	if Probe().Ring {
		backends = append(backends, BackendIOURing)
	} else {
		t.Log("io_uring unavailable; real backend skipped")
	}
	for _, be := range backends {
		t.Run(string(be), func(t *testing.T) {
			const n = 256
			f := testFile(t, n)
			r, err := New(be, f, 16)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			// Read 40 scattered 2-entry runs through a 16-deep ring.
			const runs = 40
			bufs := make([][]byte, runs)
			next, completed := 0, 0
			inflight := 0
			for completed < runs {
				for next < runs {
					start := (next * 5) % (n - 2)
					bufs[next] = make([]byte, 8)
					if !r.PrepRead(uint64(next), int64(start)*4, bufs[next]) {
						break
					}
					next++
					inflight++
				}
				if _, err := r.Submit(); err != nil {
					t.Fatal(err)
				}
				cqes, err := r.Wait(1)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cqes {
					if c.Res != 8 {
						t.Fatalf("request %d: Res = %d, want 8", c.ID, c.Res)
					}
					start := (int(c.ID) * 5) % (n - 2)
					got0 := binary.LittleEndian.Uint32(bufs[c.ID][0:])
					got1 := binary.LittleEndian.Uint32(bufs[c.ID][4:])
					if got0 != uint32(start) || got1 != uint32(start+1) {
						t.Fatalf("request %d: read (%d,%d), want (%d,%d)", c.ID, got0, got1, start, start+1)
					}
					completed++
				}
				inflight -= len(cqes)
			}
			if inflight != 0 {
				t.Fatalf("inflight = %d after drain", inflight)
			}
		})
	}
}

func TestIOURingConstructorGated(t *testing.T) {
	f := testFile(t, 4)
	r, err := New(BackendIOURing, f, 8)
	if Probe().Ring {
		if err != nil {
			t.Fatalf("Probe()=true but io_uring backend failed: %v", err)
		}
		r.Close()
	} else if err == nil {
		r.Close()
		t.Fatal("Probe()=false but io_uring backend constructed")
	}
}
