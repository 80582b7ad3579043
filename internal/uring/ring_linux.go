//go:build linux

package uring

import (
	"cmp"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Raw io_uring binding: io_uring_setup / io_uring_enter /
// io_uring_register syscalls and mmap'd SQ/CQ rings, written directly
// against the kernel ABI (no cgo, no liburing). Two read opcodes are
// wired up — IORING_OP_READ for the plain path and IORING_OP_READ_FIXED
// for reads into registered arenas — plus the three setup-time fast-path
// knobs the paper's hot loop wants: IORING_REGISTER_BUFFERS (skip
// per-read page pinning), IORING_REGISTER_FILES + IOSQE_FIXED_FILE
// (skip per-SQE fd lookup), and IORING_SETUP_SQPOLL (kernel-side SQ
// consumption; steady-state submission is a shared-memory store).

const (
	sysIOURingSetup    = 425
	sysIOURingEnter    = 426
	sysIOURingRegister = 427

	offSQRing = 0x0
	offCQRing = 0x8000000
	offSQEs   = 0x10000000

	setupSQPoll = 1 << 1 // IORING_SETUP_SQPOLL

	sqNeedWakeup = 1 << 0 // IORING_SQ_NEED_WAKEUP, in the SQ ring flags word

	enterGetEvents = 1 << 0 // IORING_ENTER_GETEVENTS
	enterSQWakeup  = 1 << 1 // IORING_ENTER_SQ_WAKEUP

	registerBuffers = 0 // IORING_REGISTER_BUFFERS
	registerFiles   = 2 // IORING_REGISTER_FILES

	opReadFixed = 4  // IORING_OP_READ_FIXED, kernel 5.1+
	opRead      = 22 // IORING_OP_READ, kernel 5.6+

	iosqeFixedFile = 1 << 0 // IOSQE_FIXED_FILE

	sqeSize = 64
	cqeSize = 16

	// defaultSQPollIdleMS is the SQPOLL thread spin-down timeout when
	// Options leaves it zero: long enough to span a batch's submit
	// cadence, short enough not to burn a core across idle epochs.
	defaultSQPollIdleMS = 100
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
	// construction: every plain SQE carries it.
	fileFD int32

	sqRing []byte
	cqRing []byte
	sqes   []byte

	sqHead    *uint32
	sqTail    *uint32
	sqFlags   *uint32
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

	sqpoll    bool
	fixedFile bool // file registered at fixed-file index 0

	// fixed pins the registered arenas for the ring's lifetime: the
	// kernel holds their pages pinned, so the GC must not reclaim them.
	fixed [][]byte
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

func register(fd int, opcode uint32, arg unsafe.Pointer, nrArgs uint32) error {
	_, _, errno := syscall.Syscall6(sysIOURingRegister, uintptr(fd),
		uintptr(opcode), uintptr(arg), uintptr(nrArgs), 0, 0)
	if errno != 0 {
		return errno
	}
	return nil
}

// newRawRing sets up a kernel ring per Options, maps the three rings,
// and performs the requested registrations. f may be nil only when
// RegisterFile is false (the capability probe).
func newRawRing(f *os.File, o Options) (*iouRing, error) {
	var p uringParams
	if o.SQPoll {
		p.flags |= setupSQPoll
		p.sqThreadIdle = o.SQPollIdleMS
		if p.sqThreadIdle == 0 {
			p.sqThreadIdle = defaultSQPollIdleMS
		}
	}
	fd, err := setupRing(uint32(o.Entries), &p)
	if err != nil {
		return nil, err
	}
	r := &iouRing{fd: fd, fileFD: -1, sqpoll: o.SQPoll, pinLimit: pinCompactAt}
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
	r.sqFlags = (*uint32)(unsafe.Add(sq, p.sqOff.flags))
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

	if len(o.FixedBuffers) > 0 {
		iovs := make([]syscall.Iovec, len(o.FixedBuffers))
		for i, b := range o.FixedBuffers {
			if len(b) == 0 {
				return fail(fmt.Errorf("uring: fixed buffer %d is empty", i))
			}
			iovs[i].Base = &b[0]
			iovs[i].SetLen(len(b))
		}
		if err := register(fd, registerBuffers, unsafe.Pointer(&iovs[0]), uint32(len(iovs))); err != nil {
			return fail(fmt.Errorf("uring: IORING_REGISTER_BUFFERS: %w", err))
		}
		r.fixed = o.FixedBuffers
		runtime.KeepAlive(iovs)
	}
	if o.RegisterFile {
		fds := [1]int32{r.fileFD}
		if err := register(fd, registerFiles, unsafe.Pointer(&fds[0]), 1); err != nil {
			return fail(fmt.Errorf("uring: IORING_REGISTER_FILES: %w", err))
		}
		r.fixedFile = true
	}
	return r, nil
}

// newIOURing opens a real ring over f. Every requested knob must be
// granted: construction fails (rather than silently downgrading) when
// the kernel refuses one — callers gate on Probe() so a fallback is an
// explicit, logged decision at the Config layer.
func newIOURing(f *os.File, o Options) (Ring, error) {
	caps := Probe()
	if !caps.Ring {
		return nil, fmt.Errorf("uring: io_uring unavailable in this environment (use %s)", BackendPool)
	}
	if len(o.FixedBuffers) > 0 && !caps.ReadFixed {
		return nil, fmt.Errorf("uring: fixed buffers requested but IORING_REGISTER_BUFFERS unavailable (caps %s)", caps)
	}
	if o.RegisterFile && !caps.RegisteredFiles {
		return nil, fmt.Errorf("uring: registered files requested but IORING_REGISTER_FILES unavailable (caps %s)", caps)
	}
	if o.SQPoll && !caps.SQPoll {
		return nil, fmt.Errorf("uring: SQPOLL requested but IORING_SETUP_SQPOLL unavailable (caps %s)", caps)
	}
	r, err := newRawRing(f, o)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// probe verifies the real path feature by feature: base setup + all
// three mmaps, buffer registration, file registration (against a pipe
// fd, so no filesystem contact), and an SQPOLL ring. Each failure just
// clears that capability — callers downgrade, never error.
func probe() Caps {
	var c Caps
	r, err := newRawRing(nil, Options{Entries: 8})
	if err != nil {
		return c
	}
	c.Ring = true

	arena := make([]byte, 4096)
	var iov syscall.Iovec
	iov.Base = &arena[0]
	iov.SetLen(len(arena))
	if register(r.fd, registerBuffers, unsafe.Pointer(&iov), 1) == nil {
		c.ReadFixed = true
	}
	runtime.KeepAlive(arena)

	var pipeFDs [2]int
	if syscall.Pipe(pipeFDs[:]) == nil {
		fds := [1]int32{int32(pipeFDs[0])}
		if register(r.fd, registerFiles, unsafe.Pointer(&fds[0]), 1) == nil {
			c.RegisteredFiles = true
		}
		syscall.Close(pipeFDs[0])
		syscall.Close(pipeFDs[1])
	}
	r.Close()

	if rs, err := newRawRing(nil, Options{Entries: 8, SQPoll: true, SQPollIdleMS: 1}); err == nil {
		c.SQPoll = true
		rs.Close()
	}
	return c
}

// prep stages one SQE. bufIndex is only meaningful for opReadFixed.
func (r *iouRing) prep(id uint64, off int64, buf []byte, opcode uint8, bufIndex uint16) bool {
	if r.staged >= r.sqEntries || r.inflight+r.staged >= r.cqEntries {
		return false
	}
	// SQ slots still owned by the kernel: at most what the published head
	// shows, and at most the requests not yet harvested — an SQE whose CQE
	// was harvested has been consumed. The second bound matters under
	// SQPOLL, where the SQ thread posts inline completions BEFORE it
	// publishes sq.head: user space can harvest a whole group while the
	// head still shows a full SQ, and trusting the head alone would refuse
	// an idle ring.
	if r.localTail-atomic.LoadUint32(r.sqHead) >= r.sqEntries && r.staged+r.inflight >= r.sqEntries {
		return false
	}
	idx := r.localTail & r.sqMask
	sqe := unsafe.Pointer(&r.sqes[idx*sqeSize])
	// Zero the slot, then fill the read fields.
	*(*[sqeSize]byte)(sqe) = [sqeSize]byte{}
	*(*uint8)(sqe) = opcode // opcode
	if r.fixedFile {
		*(*uint8)(unsafe.Add(sqe, 1)) = iosqeFixedFile // flags
		*(*int32)(unsafe.Add(sqe, 4)) = 0              // fixed-file index
	} else {
		*(*int32)(unsafe.Add(sqe, 4)) = r.fileFD // fd
	}
	*(*uint64)(unsafe.Add(sqe, 8)) = uint64(off)                               // off
	*(*uint64)(unsafe.Add(sqe, 16)) = uint64(uintptr(unsafe.Pointer(&buf[0]))) // addr
	*(*uint32)(unsafe.Add(sqe, 24)) = uint32(len(buf))                         // len
	*(*uint64)(unsafe.Add(sqe, 32)) = id                                       // user_data
	*(*uint16)(unsafe.Add(sqe, 40)) = bufIndex                                 // buf_index
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
// them all when nothing is staged or in flight. Registered arenas are
// pinned for the ring's lifetime by r.fixed and never recorded.
func (r *iouRing) pin(buf []byte) {
	if n := len(r.pins); n > 0 && sliceWithin(r.pins[n-1], buf) {
		return
	}
	for _, arena := range r.fixed {
		if sliceWithin(arena, buf) {
			return
		}
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

func (r *iouRing) PrepRead(id uint64, off int64, buf []byte) bool {
	return r.prep(id, off, buf, opRead, 0)
}

func (r *iouRing) PrepReadFixed(id uint64, off int64, buf []byte, bufIndex int) bool {
	// Out-of-range indexes are still staged: the kernel completes them
	// with a negative CQE (-EINVAL/-EFAULT) per the ring contract.
	return r.prep(id, off, buf, opReadFixed, uint16(bufIndex))
}

func (r *iouRing) Submit() (int, error) {
	atomic.StoreUint32(r.sqTail, r.localTail)
	if r.sqpoll {
		// The SQPOLL kernel thread consumes the ring; publishing the new
		// tail is the submission. Only an idled-out thread needs an enter.
		n := int(r.staged)
		r.inflight += r.staged
		r.staged = 0
		if atomic.LoadUint32(r.sqFlags)&sqNeedWakeup != 0 {
			r.sys.Submits++
			if _, err := enter(r.fd, 0, 0, enterSQWakeup); err != nil {
				return n, err
			}
		}
		return n, nil
	}
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
	r.fixed = nil
	r.pins = nil
	return nil
}
