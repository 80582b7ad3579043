//go:build linux

package uring

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Raw io_uring binding: io_uring_setup / io_uring_enter syscalls and
// mmap'd SQ/CQ rings, written directly against the kernel ABI (no cgo,
// no liburing). One read opcode is wired up: IORING_OP_READ.

const (
	sysIOURingSetup = 425
	sysIOURingEnter = 426

	offSQRing = 0x0
	offCQRing = 0x8000000
	offSQEs   = 0x10000000

	enterGetEvents = 1 << 0 // IORING_ENTER_GETEVENTS

	opRead = 22 // IORING_OP_READ, kernel 5.6+

	sqeSize = 64
	cqeSize = 16
)

// Kernel ABI structs. Sizes are load-bearing: io_uring_setup writes
// through these layouts.
type sqringOffsets struct {
	head, tail, ringMask, ringEntries uint32
	flags, dropped, array, resv1      uint32
	userAddr                          uint64
}

type cqringOffsets struct {
	head, tail, ringMask, ringEntries uint32
	overflow, cqes, flags, resv1      uint32
	userAddr                          uint64
}

type uringParams struct {
	sqEntries    uint32
	cqEntries    uint32
	flags        uint32
	sqThreadCPU  uint32
	sqThreadIdle uint32
	features     uint32
	wqFD         uint32
	resv         [3]uint32
	sqOff        sqringOffsets
	cqOff        cqringOffsets
}

// Compile-time ABI size checks (both arrays must have length 0).
var (
	_ [120 - unsafe.Sizeof(uringParams{})]byte
	_ [unsafe.Sizeof(uringParams{}) - 120]byte
	_ [40 - unsafe.Sizeof(sqringOffsets{})]byte
	_ [40 - unsafe.Sizeof(cqringOffsets{})]byte
)

// iouRing implements Ring on a real kernel ring pair.
type iouRing struct {
	fd int
	// fileFD is the read target's descriptor, resolved once at
	// construction: every SQE carries it.
	fileFD int32

	sqRing []byte
	cqRing []byte
	sqes   []byte

	sqHead    *uint32
	sqTail    *uint32
	sqMask    uint32
	sqEntries uint32
	sqArray   []uint32

	cqHead    *uint32
	cqTail    *uint32
	cqMask    uint32
	cqEntries uint32
	cqesBase  unsafe.Pointer

	localTail uint32 // SQEs written but not yet published
	staged    uint32
	inflight  uint32

	// pins keeps the destination memory of in-flight reads GC-reachable
	// while only the kernel holds its address (see pin). Append-only
	// between idle moments; cleared when the ring goes idle.
	pins     [][]byte
	pinLimit int
	cq       []CQE

	sys Syscalls
}

func setupRing(entries uint32, p *uringParams) (int, error) {
	fd, _, errno := syscall.Syscall(sysIOURingSetup, uintptr(entries), uintptr(unsafe.Pointer(p)), 0)
	if errno != 0 {
		return -1, fmt.Errorf("uring: io_uring_setup: %w", errno)
	}
	return int(fd), nil
}

func enter(fd int, toSubmit, minComplete, flags uint32) (int, error) {
	for {
		n, _, errno := syscall.Syscall6(sysIOURingEnter, uintptr(fd),
			uintptr(toSubmit), uintptr(minComplete), uintptr(flags), 0, 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return 0, fmt.Errorf("uring: io_uring_enter: %w", errno)
		}
		return int(n), nil
	}
}

// newRawRing sets up a kernel ring per Options and maps the three
// rings. f is nil for the capability probe.
func newRawRing(f *os.File, o Options) (*iouRing, error) {
	var p uringParams
	fd, err := setupRing(uint32(o.Entries), &p)
	if err != nil {
		return nil, err
	}
	r := &iouRing{fd: fd, fileFD: -1, pinLimit: pinCompactAt}
	if f != nil {
		r.fileFD = int32(f.Fd())
	}
	fail := func(err error) (*iouRing, error) {
		r.Close()
		return nil, err
	}

	sqSize := int(p.sqOff.array + p.sqEntries*4)
	r.sqRing, err = syscall.Mmap(fd, offSQRing, sqSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return fail(fmt.Errorf("uring: mmap sq ring: %w", err))
	}
	cqSize := int(p.cqOff.cqes + p.cqEntries*cqeSize)
	r.cqRing, err = syscall.Mmap(fd, offCQRing, cqSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return fail(fmt.Errorf("uring: mmap cq ring: %w", err))
	}
	r.sqes, err = syscall.Mmap(fd, offSQEs, int(p.sqEntries)*sqeSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return fail(fmt.Errorf("uring: mmap sqes: %w", err))
	}

	sq := unsafe.Pointer(&r.sqRing[0])
	r.sqHead = (*uint32)(unsafe.Add(sq, p.sqOff.head))
	r.sqTail = (*uint32)(unsafe.Add(sq, p.sqOff.tail))
	r.sqMask = *(*uint32)(unsafe.Add(sq, p.sqOff.ringMask))
	r.sqEntries = p.sqEntries
	r.sqArray = unsafe.Slice((*uint32)(unsafe.Add(sq, p.sqOff.array)), p.sqEntries)

	cq := unsafe.Pointer(&r.cqRing[0])
	r.cqHead = (*uint32)(unsafe.Add(cq, p.cqOff.head))
	r.cqTail = (*uint32)(unsafe.Add(cq, p.cqOff.tail))
	r.cqMask = *(*uint32)(unsafe.Add(cq, p.cqOff.ringMask))
	r.cqEntries = p.cqEntries
	r.cqesBase = unsafe.Add(cq, p.cqOff.cqes)

	r.localTail = atomic.LoadUint32(r.sqTail)
	return r, nil
}

// newIOURing opens a real ring over f. It fails (rather than silently
// downgrading) when Probe found no usable ring — callers gate on
// Probe() so a fallback is an explicit decision at the Config layer.
func newIOURing(f *os.File, o Options) (Ring, error) {
	if !Probe().Ring {
		return nil, fmt.Errorf("uring: io_uring unavailable in this environment (use %s)", BackendPool)
	}
	r, err := newRawRing(f, o)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// probe verifies the real path: base setup and all three mmaps. A
// failure reports no ring — callers downgrade, never error.
func probe() Caps {
	r, err := newRawRing(nil, Options{Entries: 8})
	if err != nil {
		return Caps{}
	}
	r.Close()
	return Caps{Ring: true}
}

func (r *iouRing) PrepRead(id uint64, off int64, buf []byte) bool {
	if r.staged >= r.sqEntries || r.inflight+r.staged >= r.cqEntries {
		return false
	}
	// SQ slots the kernel has not consumed yet, as its published head
	// shows: io_uring_enter consumes what it accepts before returning.
	if r.localTail-atomic.LoadUint32(r.sqHead) >= r.sqEntries {
		return false
	}
	idx := r.localTail & r.sqMask
	sqe := unsafe.Pointer(&r.sqes[idx*sqeSize])
	// Zero the slot, then fill the read fields.
	*(*[sqeSize]byte)(sqe) = [sqeSize]byte{}
	*(*uint8)(sqe) = opRead                                                    // opcode
	*(*int32)(unsafe.Add(sqe, 4)) = r.fileFD                                   // fd
	*(*uint64)(unsafe.Add(sqe, 8)) = uint64(off)                               // off
	*(*uint64)(unsafe.Add(sqe, 16)) = uint64(uintptr(unsafe.Pointer(&buf[0]))) // addr
	*(*uint32)(unsafe.Add(sqe, 24)) = uint32(len(buf))                         // len
	*(*uint64)(unsafe.Add(sqe, 32)) = id                                       // user_data
	r.sqArray[idx] = idx
	r.localTail++
	r.staged++
	r.pin(buf)
	return true
}

// pinCompactAt is the pin-list length at which duplicates are squeezed
// out (doubled whenever squeezing does not halve the list).
const pinCompactAt = 1024

// pin keeps buf's backing memory GC-reachable until the ring next goes
// idle. Callers read into a few large buffers — a stage buffer filled
// front to back, a handful of recycled scratch slots — so instead of a
// map entry per request the ring records a destination only when it
// does not lie inside the last one recorded (extended to its capacity,
// so later reads further into the same buffer are covered), and forgets
// them all when nothing is staged or in flight.
func (r *iouRing) pin(buf []byte) {
	if n := len(r.pins); n > 0 && sliceWithin(r.pins[n-1], buf) {
		return
	}
	if len(r.pins) >= r.pinLimit {
		// Destinations alternating between allocations (recycled O_DIRECT
		// scratch slots) repeat: keep one entry, the longest, per base.
		slices.SortFunc(r.pins, func(a, b []byte) int {
			pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
			return cmp.Or(cmp.Compare(pa, pb), cmp.Compare(len(b), len(a)))
		})
		r.pins = slices.CompactFunc(r.pins, func(a, b []byte) bool {
			return unsafe.SliceData(a) == unsafe.SliceData(b)
		})
		if len(r.pins) > r.pinLimit/2 {
			r.pinLimit *= 2
		}
	}
	r.pins = append(r.pins, buf[:cap(buf)])
}

func (r *iouRing) Submit() (int, error) {
	atomic.StoreUint32(r.sqTail, r.localTail)
	total := 0
	for r.staged > 0 {
		r.sys.Submits++
		n, err := enter(r.fd, r.staged, 0, 0)
		if err != nil {
			return total, err
		}
		if n <= 0 {
			return total, fmt.Errorf("uring: kernel accepted 0 of %d staged sqes", r.staged)
		}
		r.staged -= uint32(n)
		r.inflight += uint32(n)
		total += n
	}
	return total, nil
}

// drainCQ moves every completion currently visible in the CQ ring into
// r.cq — a pure shared-memory poll, no syscall (paper §3.2's
// completion polling).
func (r *iouRing) drainCQ() {
	head := atomic.LoadUint32(r.cqHead)
	tail := atomic.LoadUint32(r.cqTail)
	for head != tail {
		c := unsafe.Add(r.cqesBase, (head&r.cqMask)*cqeSize)
		id := *(*uint64)(c)
		res := *(*int32)(unsafe.Add(c, 8))
		r.cq = append(r.cq, CQE{ID: id, Res: res})
		r.inflight--
		head++
	}
	atomic.StoreUint32(r.cqHead, head)
	if r.inflight == 0 && r.staged == 0 && len(r.pins) > 0 {
		clear(r.pins)
		r.pins = r.pins[:0]
	}
}

func (r *iouRing) Wait(min int) ([]CQE, error) {
	if uint32(min) > r.inflight {
		min = int(r.inflight)
	}
	r.cq = r.cq[:0]
	r.drainCQ()
	for len(r.cq) < min {
		r.sys.Waits++
		if _, err := enter(r.fd, 0, uint32(min-len(r.cq)), enterGetEvents); err != nil {
			return r.cq, err
		}
		r.drainCQ()
	}
	return r.cq, nil
}

func (r *iouRing) Entries() int { return int(r.sqEntries) }

func (r *iouRing) Syscalls() Syscalls { return r.sys }

func (r *iouRing) Close() error {
	// Drain in-flight completions so the kernel is not writing into
	// buffers after we return.
	for r.inflight > 0 {
		if _, err := r.Wait(1); err != nil {
			break
		}
	}
	if r.sqes != nil {
		syscall.Munmap(r.sqes)
		r.sqes = nil
	}
	if r.cqRing != nil {
		syscall.Munmap(r.cqRing)
		r.cqRing = nil
	}
	if r.sqRing != nil {
		syscall.Munmap(r.sqRing)
		r.sqRing = nil
	}
	if r.fd >= 0 {
		syscall.Close(r.fd)
		r.fd = -1
	}
	r.pins = nil
	return nil
}
