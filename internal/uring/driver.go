package uring

import (
	"errors"
	"fmt"
	"io"
	"syscall"
	"unsafe"
)

// Read is one request of a Run: Len bytes at byte offset Off of the
// ring's file, landing at dst[Pos:Pos+Len] of the destination the Run
// fills.
type Read struct {
	Off, Pos, Len int64
}

// Append plans the n-byte read of file offset off into destination
// position pos: it extends the last read of reads when that one ends
// exactly at off in the file AND at pos in the destination and the two
// together stay within maxLen bytes, and appends a new read otherwise.
// File adjacency alone is not enough — a destination range skipped in
// between (a cache hit) would be overwritten by file bytes.
func Append(reads []Read, off, pos, n, maxLen int64) []Read {
	if k := len(reads) - 1; k >= 0 {
		if last := &reads[k]; last.Off+last.Len == off && last.Pos+last.Len == pos && last.Len+n <= maxLen {
			last.Len += n
			return reads
		}
	}
	return append(reads, Read{Off: off, Pos: pos, Len: n})
}

// DefaultRetries is the engine's one bound on how often a read is
// resubmitted — short-read remainders and -EINTR/-EAGAIN together —
// before it fails, for the workers' reads and the cache fills alike.
const DefaultRetries = 8

// ErrRingStalled marks a ring that violated the never-refuse-while-idle
// contract: reads were outstanding (fresh or awaiting retry), nothing
// was staged and nothing in flight, yet the ring refused every prep and
// produced no completions — the loop could not make progress and would
// have spun forever. Surfaced wrapped with the stalled read counts;
// match with errors.Is.
var ErrRingStalled = errors.New("ring refused to stage while idle")

// IOError is the structured error a Run surfaces when one read cannot be
// completed: a non-retryable errno came back, or the retry budget was
// exhausted by transient results (-EINTR, -EAGAIN, short reads — a
// zero-byte completion at or past EOF is a short read too). Offset and
// Bytes describe the byte range still outstanding when the driver gave
// up: after partial progress, the unread tail, not the original read.
type IOError struct {
	// Offset is the file byte offset of the failed read.
	Offset int64
	// Bytes is how many bytes were still outstanding.
	Bytes int64
	// Attempts is how many retries had been spent on the read.
	Attempts int
	// Errno is the final negated-errno result, or 0 when the retry
	// budget was exhausted by short reads alone.
	Errno syscall.Errno
	// ShortRead records that the final completion before giving up was
	// a short read — the device kept delivering truncated prefixes (or
	// zero bytes, as reads at or past EOF do) until the retry budget ran
	// out. It distinguishes a truncated-file/racing-writer condition
	// from an errno failure without overloading Errno with a sentinel.
	ShortRead bool
}

func (e *IOError) Error() string {
	if e.Errno != 0 {
		return fmt.Sprintf("uring: read of %d bytes at offset %d failed after %d retries: %v",
			e.Bytes, e.Offset, e.Attempts, e.Errno)
	}
	if e.ShortRead {
		return fmt.Sprintf("uring: read of %d bytes at offset %d: retry budget exhausted by short reads after %d attempts (truncated file or racing writer?)",
			e.Bytes, e.Offset, e.Attempts)
	}
	return fmt.Sprintf("uring: read of %d bytes at offset %d still short after %d retries",
		e.Bytes, e.Offset, e.Attempts)
}

// Unwrap exposes the underlying cause for errors.Is/As: the final
// errno, or io.ErrUnexpectedEOF for short-read exhaustion.
func (e *IOError) Unwrap() error {
	if e.Errno != 0 {
		return e.Errno
	}
	return io.ErrUnexpectedEOF
}

// Stats counts a Driver's reads across every Run.
type Stats struct {
	// Reads is how many reads completed in full; Bytes the requested
	// bytes delivered (short-read prefixes of buffered reads included,
	// as they land).
	Reads, Bytes int64
	// SlackBytes is what O_DIRECT windows delivered beyond the requested
	// ranges: alignment rounding plus the partial blocks re-read after a
	// short window.
	SlackBytes int64
	// Retries counts resubmissions, ShortReads the completions short of
	// their range, TransientErrs the -EINTR/-EAGAIN completions.
	Retries, ShortReads, TransientErrs int64
	// StaleDrained counts the completions a failed Run harvested and
	// discarded before returning.
	StaleDrained int64
}

// directChunk is the size of the O_DIRECT scratch chunks cut from the
// arena: a 4096-aligned window around any offset-sampled run fits with
// room to spare; bigger windows take heap slots.
const directChunk = 16 << 10

// directScratch bounds the heap scratch an O_DIRECT Driver holds: a
// window that would take it past the bound waits until the windows in
// flight complete, and only a window alone may exceed it.
const directScratch = 4 << 20

// Driver pushes batches of reads through one ring under the discipline
// of DESIGN.md §4: it keeps the ring full (every pass stages what the
// ring takes and publishes it with one Submit, and while more reads
// wait it reaps half the window per Wait), resubmits the remainder of a
// short read and the whole of an -EINTR/-EAGAIN, both within
// DefaultRetries, and fails on anything else — after draining what is
// still in flight, so the ring is idle again when the caller sees the
// error. Every reader of the engine goes through one: the workers' edge
// and feature stages and the cache fills.
//
// On an O_DIRECT file (Align > 0) each read becomes the aligned window
// around it, read into a scratch slot — a directChunk cut from Arena
// when one is free and the window fits, a heap slot otherwise — and
// copied out; a short window resumes from its progress rounded down to
// Align, re-reading the partial block, and a window past the end of the
// file is done once the requested range is covered.
//
// A Driver is not safe for concurrent use; the zero value plus Ring is a
// buffered, asynchronous driver.
type Driver struct {
	Ring Ring
	// Align is the file's O_DIRECT granularity, a power of two; 0 reads
	// a buffered file straight into the destination.
	Align int
	// Arena is O_DIRECT scratch memory, aligned to Align, that the
	// driver cuts into directChunk-sized window slots on its first Run;
	// nil gives every window a heap slot. Drivers whose Runs never
	// overlap may share one. A buffered driver ignores it.
	Arena []byte

	// Stats accumulates over every Run.
	Stats Stats

	inflight int  // reads submitted and not yet harvested
	broken   bool // the ring errored or stalled: it cannot be proven idle
	reqs     []req
	retryQ   []int32

	// O_DIRECT scratch: slots[:chunks] are arena chunks, the rest heap
	// buffers of heapBytes in all, reused across Runs.
	slots     []slot
	chunks    int
	heapBytes int64
	leased    int
	freeChunk []int32
	freeHeap  []int32
}

// req is the live state of read i of a Run: the byte range still
// outstanding, which shrinks as short-read prefixes land, and the
// retries it has spent — 32 bytes, everything a buffered read needs. On
// an O_DIRECT file the range is the rest of the window in the scratch
// slot the read holds, and pos is the destination of its first byte.
type req struct {
	off      int64
	pos      int64
	remain   int64
	attempts int32
	slot     int32 // scratch slot held, or -1
}

// slot is one O_DIRECT scratch buffer and, while a read holds it, that
// read's window [start, end) around the requested [off, off+n), and the
// bytes the device has delivered for it.
type slot struct {
	buf                      []byte
	start, end, off, n, done int64
}

// Broken reports whether a failed Run left the ring unprovably idle: it
// errored or stalled, or stopped producing the completions it owed
// while the driver drained. A broken driver must not run again.
func (d *Driver) Broken() bool { return d.broken }

// Run reads every read of reads from the ring's file into dst and
// returns nil, or the first failure — an *IOError for a read that cannot
// complete, ErrRingStalled for a ring that refuses while idle, or the
// ring's own error — once what was in flight has been drained.
func (d *Driver) Run(dst []byte, reads []Read) error {
	err := d.run(dst, reads)
	if err != nil {
		d.drain()
	}
	return err
}

func (d *Driver) run(dst []byte, reads []Read) error {
	if cap(d.reqs) < len(reads) {
		d.reqs = make([]req, len(reads))
	}
	d.reqs = d.reqs[:len(reads)]
	d.retryQ = d.retryQ[:0]
	d.resetSlots()
	next, done := 0, 0
	for done < len(reads) {
		staged := 0
		// Resubmissions first: the reads they finish are the oldest.
		for len(d.retryQ) > 0 && d.prep(int(d.retryQ[0]), dst) {
			d.retryQ = d.retryQ[1:]
			staged++
		}
		for len(d.retryQ) == 0 && next < len(reads) && d.stage(next, &reads[next], dst) {
			next++
			staged++
		}
		if staged > 0 {
			if _, err := d.Ring.Submit(); err != nil {
				// Unknown how many staged reads were published.
				d.broken = true
				return err
			}
			d.inflight += staged
		}
		min := 1
		if (len(d.retryQ) > 0 || next < len(reads)) && d.inflight > 1 {
			// Saturated: more work wants in. Reap half the window in one
			// blocking call so the refill batches are deep too.
			min = d.inflight / 2
		}
		cqes, err := d.Ring.Wait(min)
		if err != nil {
			d.broken = true
			return err
		}
		// Everything Wait returned has left the ring, whether or not the
		// loop below fails part-way.
		d.inflight -= len(cqes)
		for _, c := range cqes {
			rq := &d.reqs[c.ID]
			got := int64(c.Res)
			switch {
			case c.Res < 0:
				errno := syscall.Errno(-c.Res)
				if errno != syscall.EINTR && errno != syscall.EAGAIN {
					return &IOError{Offset: rq.off, Bytes: rq.remain, Attempts: int(rq.attempts), Errno: errno}
				}
				d.Stats.TransientErrs++
				if int(rq.attempts) >= DefaultRetries {
					return &IOError{Offset: rq.off, Bytes: rq.remain, Attempts: int(rq.attempts), Errno: errno}
				}
				rq.attempts++
				d.Stats.Retries++
				d.retryQ = append(d.retryQ, int32(c.ID))
			case got > rq.remain:
				return fmt.Errorf("uring: overlong read at offset %d: got %d bytes, want %d", rq.off, got, rq.remain)
			case rq.slot >= 0:
				complete, err := d.window(int32(c.ID), rq, got, dst)
				if err != nil {
					return err
				}
				if complete {
					done++
				}
			case got == rq.remain:
				d.Stats.Reads++
				d.Stats.Bytes += got
				done++
			default:
				// Short read: the prefix is valid — resubmit only the tail.
				d.Stats.ShortReads++
				d.Stats.Bytes += got
				rq.off += got
				rq.pos += got
				rq.remain -= got
				if int(rq.attempts) >= DefaultRetries {
					return &IOError{Offset: rq.off, Bytes: rq.remain, Attempts: int(rq.attempts), ShortRead: true}
				}
				rq.attempts++
				d.Stats.Retries++
				d.retryQ = append(d.retryQ, int32(c.ID))
			}
		}
		// Stall guard: nothing staged, nothing in flight, nothing drained —
		// the next pass would replay this one verbatim.
		if staged == 0 && d.inflight == 0 && len(cqes) == 0 {
			d.broken = true
			return fmt.Errorf("uring: %d of %d reads complete, %d awaiting retry: %w",
				done, len(reads), len(d.retryQ), ErrRingStalled)
		}
	}
	return nil
}

// stage starts read i. On an O_DIRECT file it first leases a slot for
// the window around the read, and gives it back when either the scratch
// bound or the ring refuses.
func (d *Driver) stage(i int, rd *Read, dst []byte) bool {
	rq := &d.reqs[i]
	if d.Align == 0 {
		*rq = req{off: rd.Off, pos: rd.Pos, remain: rd.Len, slot: -1}
		return d.prep(i, dst)
	}
	mask := int64(d.Align) - 1
	start, end := rd.Off&^mask, (rd.Off+rd.Len+mask)&^mask
	s := d.lease(end - start)
	if s < 0 {
		return false
	}
	sl := &d.slots[s]
	sl.start, sl.end, sl.off, sl.n, sl.done = start, end, rd.Off, rd.Len, 0
	*rq = req{off: start, pos: rd.Pos, remain: end - start, slot: s}
	if !d.prep(i, dst) {
		d.release(s)
		return false
	}
	return true
}

// prep stages read i's outstanding range: into the destination when
// buffered, into the held slot's window on an O_DIRECT file.
func (d *Driver) prep(i int, dst []byte) bool {
	rq := &d.reqs[i]
	if rq.slot >= 0 {
		sl := &d.slots[rq.slot]
		at := rq.off - sl.start
		return d.Ring.PrepRead(uint64(i), rq.off, sl.buf[at:at+rq.remain])
	}
	return d.Ring.PrepRead(uint64(i), rq.off, dst[rq.pos:rq.pos+rq.remain])
}

// window takes a non-negative completion of O_DIRECT read id. The read
// is complete once the window delivered through the end of the requested
// range — which a window past the end of the file reaches short of its
// aligned end. Short of that, the rest of the window is resubmitted from
// the progress rounded down to Align, so the offset stays legal.
func (d *Driver) window(id int32, rq *req, got int64, dst []byte) (bool, error) {
	sl := &d.slots[rq.slot]
	sl.done += got
	covered := rq.off + got
	if covered >= sl.off+sl.n {
		copy(dst[rq.pos:rq.pos+sl.n], sl.buf[sl.off-sl.start:])
		d.Stats.Reads++
		d.Stats.Bytes += sl.n
		d.Stats.SlackBytes += sl.done - sl.n
		d.release(rq.slot)
		rq.slot = -1
		return true, nil
	}
	d.Stats.ShortReads++
	if int(rq.attempts) >= DefaultRetries {
		return false, &IOError{Offset: covered, Bytes: sl.off + sl.n - covered, Attempts: int(rq.attempts), ShortRead: true}
	}
	rq.attempts++
	d.Stats.Retries++
	rq.off = covered &^ (int64(d.Align) - 1)
	rq.remain = sl.end - rq.off
	d.retryQ = append(d.retryQ, id)
	return false, nil
}

// drain harvests and discards the completions of reads still in flight
// after a failed Run. A ring that errors, or stops producing completions
// it owes, cannot be proven idle: the driver is then broken.
func (d *Driver) drain() {
	for d.inflight > 0 {
		cqes, err := d.Ring.Wait(d.inflight)
		if err != nil || len(cqes) == 0 {
			d.broken = true
			return
		}
		d.inflight -= len(cqes)
		d.Stats.StaleDrained += int64(len(cqes))
	}
}

// resetSlots frees every scratch slot at the start of a Run — any still
// leased belonged to a failed Run whose reads were drained — cutting the
// arena into chunks the first time. Chunks are handed out lowest first,
// so a ring that pins its destinations (see iouRing.pin) covers a run of
// them with the first one's pin.
func (d *Driver) resetSlots() {
	if d.Align == 0 {
		return
	}
	if d.chunks == 0 && len(d.Arena) >= directChunk {
		d.chunks = len(d.Arena) / directChunk
		heap := d.slots
		d.slots = make([]slot, d.chunks, d.chunks+len(heap))
		for i := range d.slots {
			d.slots[i].buf = d.Arena[i*directChunk : (i+1)*directChunk]
		}
		d.slots = append(d.slots, heap...)
	}
	d.freeChunk, d.freeHeap, d.leased = d.freeChunk[:0], d.freeHeap[:0], 0
	for i := d.chunks - 1; i >= 0; i-- {
		d.freeChunk = append(d.freeChunk, int32(i))
	}
	for i := d.chunks; i < len(d.slots); i++ {
		d.freeHeap = append(d.freeHeap, int32(i))
	}
}

// lease hands out a slot for an n-byte window, or -1 when the window
// must wait for the ones in flight: an arena chunk when one is free and
// the window fits, else a heap slot, grown to the window when it is
// smaller. The heap slots hold at most directScratch bytes while any
// window is leased; a window arriving when none is drops the idle ones
// first if it would break the bound, so the bound is directScratch or the
// largest single window.
func (d *Driver) lease(n int64) int32 {
	if k := len(d.freeChunk); k > 0 && n <= directChunk {
		s := d.freeChunk[k-1]
		d.freeChunk = d.freeChunk[:k-1]
		d.leased++
		return s
	}
	s := int32(-1)
	var have int64
	if k := len(d.freeHeap); k > 0 {
		s = d.freeHeap[k-1]
		have = int64(len(d.slots[s].buf))
	}
	if have < n && d.heapBytes-have+n > directScratch {
		if d.leased > 0 {
			return -1
		}
		d.slots, d.freeHeap, d.heapBytes, s, have = d.slots[:d.chunks], d.freeHeap[:0], 0, -1, 0
	}
	if s < 0 {
		s = int32(len(d.slots))
		d.slots = append(d.slots, slot{})
	} else {
		d.freeHeap = d.freeHeap[:len(d.freeHeap)-1]
	}
	if have < n {
		d.slots[s].buf = AlignedSlice(int(n), d.Align)
		d.heapBytes += n - have
	}
	d.leased++
	return s
}

// release returns a leased slot to its free list.
func (d *Driver) release(s int32) {
	if int(s) < d.chunks {
		d.freeChunk = append(d.freeChunk, s)
	} else {
		d.freeHeap = append(d.freeHeap, s)
	}
	d.leased--
}

// AlignedSlice returns a length-n byte slice whose backing memory starts
// on an align-byte boundary (align a power of two), as O_DIRECT reads
// require of their destination.
func AlignedSlice(n, align int) []byte {
	raw := make([]byte, n+align)
	off := 0
	if align > 0 {
		base := int(uintptr(unsafe.Pointer(unsafe.SliceData(raw))))
		off = (base+align-1)&^(align-1) - base
	}
	return raw[off : off+n : off+n]
}
