package uring

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// TestFieldCensus pins the exported fields of the ring layer's
// settings, capability set and driver, so a ring knob can only come back
// as a visible one-line change here, judged on its own.
func TestFieldCensus(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[Options](), []string{"Entries"}},
		{reflect.TypeFor[Caps](), []string{"Ring"}},
		{reflect.TypeFor[Driver](), []string{"Ring", "Align", "Arena", "Stats"}},
	} {
		t.Run(c.typ.Name(), func(t *testing.T) {
			var got []string
			for i := range c.typ.NumField() {
				if f := c.typ.Field(i); f.IsExported() {
					got = append(got, f.Name)
				}
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("uring.%s fields\n got %q\nwant %q", c.typ.Name(), got, c.want)
			}
		})
	}
}

func TestCapsString(t *testing.T) {
	cases := []struct {
		caps Caps
		want string
	}{
		{Caps{}, "unavailable"},
		{Caps{Ring: true}, "ring"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("ring=%v", c.caps.Ring), func(t *testing.T) {
			if got := c.caps.String(); got != c.want {
				t.Fatalf("Caps%+v.String() = %q, want %q", c.caps, got, c.want)
			}
		})
	}
}

// TestSyscallsReporter: pool and sim report one submission-side syscall
// per pread (their honest kernel-crossing cost) and zero blocking waits;
// the real ring reports at least one enter per submit-with-work and per
// blocking wait.
func TestSyscallsReporter(t *testing.T) {
	backends := []Backend{BackendPool, BackendSim}
	if Probe().Ring {
		backends = append(backends, BackendIOURing)
	}
	for _, be := range backends {
		t.Run(string(be), func(t *testing.T) {
			f := testFile(t, 64)
			r, err := NewWith(be, f, Options{Entries: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sr, ok := r.(SyscallReporter)
			if !ok {
				t.Fatalf("%T does not implement SyscallReporter", r)
			}
			const n = 6
			done := 0
			for i := 0; i < n; i++ {
				buf := make([]byte, 8)
				if !r.PrepRead(uint64(i), int64(i)*8, buf) {
					t.Fatal("read refused while idle")
				}
				if _, err := r.Submit(); err != nil {
					t.Fatal(err)
				}
				cqes, err := r.Wait(1)
				if err != nil {
					t.Fatal(err)
				}
				done += len(cqes)
			}
			for done < n {
				cqes, err := r.Wait(1)
				if err != nil {
					t.Fatal(err)
				}
				done += len(cqes)
			}
			sys := sr.Syscalls()
			switch be {
			case BackendPool, BackendSim:
				if sys.Submits != n {
					t.Fatalf("Submits = %d, want %d (one pread per request)", sys.Submits, n)
				}
				if sys.Waits != 0 {
					t.Fatalf("Waits = %d, want 0 (user-space completion)", sys.Waits)
				}
			default:
				if sys.Submits == 0 {
					t.Fatalf("real ring reported zero submit syscalls: %+v", sys)
				}
			}
		})
	}
}
