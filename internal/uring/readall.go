package uring

import (
	"errors"
	"fmt"
	"io"
	"syscall"
)

// Read is one request of a ReadAll batch: Buf is filled from byte offset
// Off of the ring's file.
type Read struct {
	Off int64
	Buf []byte
	// Need is how many leading bytes of Buf must arrive; 0 means all of
	// Buf. An O_DIRECT window whose aligned end lies past the end of the
	// file needs only the bytes that cover what was asked for.
	Need int
}

// DefaultRetries is the engine's one default bound on how often a read
// is resubmitted — short-read remainders and -EINTR/-EAGAIN together —
// before it fails: the default of core's Config.MaxIORetries, and the
// bound of the cache fills, which run outside any worker.
const DefaultRetries = 8

var errShortRead = errors.New("short read")

// ReadAll pushes every read through r to completion, keeping the ring as
// full as it will go, and returns the bytes the file delivered: every
// non-negative result summed, re-read bytes included.
//
// It absorbs what the ring contract (see Ring) allows: a short read
// resubmits its remainder and -EINTR/-EAGAIN the read verbatim, up to
// retries times per read (0: the first one fails). With align > 0 every
// read is an O_DIRECT window (Off, len(Buf) and Buf's address multiples
// of align) and a short read resumes from its progress rounded down to
// align, re-reading the partial block. Any other errno, a read that ends at EOF before its Need
// bytes, or an exhausted budget fails the batch: the reads still in
// flight are drained first, and the error names the failing offset. A
// Submit or Wait error returns at once — the ring can then not be proven
// empty, and the caller closes it.
//
// r must be idle on entry; it is idle again on every return but the
// ring-error one.
func ReadAll(r Ring, reads []Read, align, retries int) (int64, error) {
	type progress struct {
		pos      int // bytes of Buf delivered so far
		need     int // bytes of Buf that must be delivered
		attempts int
	}
	st := make([]progress, len(reads))
	for i, rd := range reads {
		st[i].need = rd.Need
		if rd.Need == 0 {
			st[i].need = len(rd.Buf)
		}
	}
	var (
		moved                int64
		retryQ               []int
		next, done, inflight int
	)
	prep := func(i int) bool {
		rd, p := &reads[i], &st[i]
		return r.PrepRead(uint64(i), rd.Off+int64(p.pos), rd.Buf[p.pos:])
	}
	errAt := func(i int, cause error) error {
		rd, p := &reads[i], &st[i]
		return fmt.Errorf("uring: read of %d bytes at offset %d: %w", len(rd.Buf)-p.pos, rd.Off+int64(p.pos), cause)
	}
	retry := func(i int, cause error) error {
		if st[i].attempts >= retries {
			return errAt(i, fmt.Errorf("%w after %d attempts", cause, st[i].attempts+1))
		}
		st[i].attempts++
		retryQ = append(retryQ, i)
		return nil
	}
	// fail drains what is still in flight, so the ring is idle when the
	// caller sees err.
	fail := func(err error) (int64, error) {
		for inflight > 0 {
			cqes, werr := r.Wait(inflight)
			if werr != nil || len(cqes) == 0 {
				break
			}
			inflight -= len(cqes)
		}
		return moved, err
	}
	for done < len(reads) {
		staged := 0
		// Resubmissions first, then fresh reads while the ring takes them.
		for len(retryQ) > 0 && prep(retryQ[0]) {
			retryQ = retryQ[1:]
			staged++
		}
		for len(retryQ) == 0 && next < len(reads) {
			if st[next].need > 0 {
				if !prep(next) {
					break
				}
				staged++
			} else {
				done++
			}
			next++
		}
		if staged > 0 {
			if _, err := r.Submit(); err != nil {
				return moved, fmt.Errorf("uring: submit: %w", err)
			}
			inflight += staged
		}
		if inflight == 0 {
			if done == len(reads) {
				break
			}
			// Idle and refusing: a ring that breaks the contract must fail
			// the batch, not spin.
			return moved, fmt.Errorf("uring: ring refused a read while idle (%d of %d reads done)", done, len(reads))
		}
		// While more work waits to be staged, reap half the window in one
		// Wait so the refill is deep too; at the tail take what comes.
		min := 1
		if (len(retryQ) > 0 || next < len(reads)) && inflight > 1 {
			min = inflight / 2
		}
		cqes, err := r.Wait(min)
		if err != nil {
			return moved, fmt.Errorf("uring: wait: %w", err)
		}
		inflight -= len(cqes)
		for _, c := range cqes {
			i := int(c.ID)
			rd, p := &reads[i], &st[i]
			var err error
			switch {
			case c.Res < 0:
				errno := syscall.Errno(-c.Res)
				if errno != syscall.EINTR && errno != syscall.EAGAIN {
					return fail(errAt(i, errno))
				}
				err = retry(i, errno)
			case int(c.Res) > len(rd.Buf)-p.pos:
				return fail(errAt(i, fmt.Errorf("overlong result %d", c.Res)))
			default:
				moved += int64(c.Res)
				got := p.pos + int(c.Res)
				if got >= p.need {
					done++
					continue
				}
				if c.Res == 0 {
					return fail(errAt(i, io.ErrUnexpectedEOF))
				}
				p.pos = got
				if align > 0 {
					p.pos &^= align - 1
				}
				err = retry(i, errShortRead)
			}
			if err != nil {
				return fail(err)
			}
		}
	}
	return moved, nil
}
