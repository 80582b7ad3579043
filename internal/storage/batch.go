package storage

import (
	"fmt"
	"os"
	"runtime"
	"sync"

	"ringsampler/internal/uring"
)

// directScratchBytes bounds the aligned scratch a batch read on an
// O_DIRECT handle bounces its windows through, shared out among its
// parts: windows are read a scratchful at a time, so memory does not grow
// with the batch.
const directScratchBytes = 4 << 20

// ReadBatch fills every read's Buf from the edge file, Off being a
// GLOBAL byte offset as for ReadAt, in one pass through rings with many
// reads in flight, one ring per core — the access path of consumers that
// read many ranges at once (the cache builders). It returns the bytes
// moved from the file: the requested bytes on a buffered handle, the
// aligned windows around them on an O_DIRECT one.
func (d *Dataset) ReadBatch(reads []uring.Read) (int64, error) {
	return readBatch(d.f, d.directAlign, reads, d.entryBase*EntryBytes)
}

// FeatureReadBatch is ReadBatch over the feature file, Off being a
// GLOBAL byte offset (node id * stride over the whole graph).
func (d *Dataset) FeatureReadBatch(reads []uring.Read) (int64, error) {
	if d.featF == nil {
		return 0, fmt.Errorf("storage: dataset %s has no feature file", d.dir)
	}
	return readBatch(d.featF, d.featAlign, reads, d.shardLo*d.FeatureStride())
}

// readBatch reads reads from f, whose first byte is global offset base.
// The reads are cut into up to GOMAXPROCS contiguous parts of about equal
// cost, and each part goes through a one-shot ring of its own on a thread
// of its own: io_uring where the probe allows it, the pread pool
// otherwise. Each read's Need is ignored; every Buf is filled. The bytes
// moved are summed over the parts; of several failing parts the first
// one's error is returned — the lowest-offset one, the callers planning
// their reads in file order — whichever finished first.
func readBatch(f *os.File, align int, reads []uring.Read, base int64) (int64, error) {
	cuts := cutParts(reads, runtime.GOMAXPROCS(0))
	moved := make([]int64, len(cuts)-1)
	errs := make([]error, len(cuts)-1)
	var wg sync.WaitGroup
	for p := range moved {
		wg.Add(1)
		go func() {
			defer wg.Done()
			moved[p], errs[p] = readPart(f, align, reads[cuts[p]:cuts[p+1]], base, len(moved))
		}()
	}
	wg.Wait()
	var total int64
	for _, n := range moved {
		total += n
	}
	for _, err := range errs {
		if err != nil {
			return total, fmt.Errorf("storage: read %s: %w", f.Name(), err)
		}
	}
	return total, nil
}

// readCostBytes is what one read costs beyond its bytes, in bytes copied
// in the same time. On the 2-core reference box a page-cache read through
// the ring costs ≈ 0.4 µs plus ≈ 0.3 ns per byte (rmat-1m's quarter-size
// caches: 23 MB in 66,503 runs fill in ≈ 35 ms, 20 MB in 146 lists in
// ≈ 6.5 ms), so about a kilobyte.
const readCostBytes = 1 << 10

// cutParts cuts reads into at most parts contiguous parts of about equal
// cost — bytes plus readCostBytes per read, so that a few large runs and
// many small rows balance alike — and returns the cut points: part p is
// reads[cuts[p]:cuts[p+1]]. No part is empty; no reads, no parts.
func cutParts(reads []uring.Read, parts int) []int {
	parts = min(parts, len(reads))
	var total int64
	for _, rd := range reads {
		total += int64(len(rd.Buf)) + readCostBytes
	}
	cuts := []int{0}
	var sum int64
	for i, rd := range reads {
		sum += int64(len(rd.Buf)) + readCostBytes
		// Cut after read i once the parts so far hold their share, while
		// enough reads remain for the parts still to come.
		if k := len(cuts); k < parts && sum*int64(parts) >= total*int64(k) && len(reads)-i-1 >= parts-k {
			cuts = append(cuts, i+1)
		}
	}
	if len(reads) > 0 {
		cuts = append(cuts, len(reads))
	}
	return cuts
}

// readPart reads one part of a batch through a ring of its own. parts is
// how many share the batch, and so the O_DIRECT scratch budget.
func readPart(f *os.File, align int, reads []uring.Read, base int64, parts int) (int64, error) {
	backend := uring.BackendPool
	if uring.Probe().Ring {
		backend = uring.BackendIOURing
	}
	// The ring stays on one thread from setup to teardown, as every
	// worker's does.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ring, err := uring.New(backend, f, uring.DefaultEntries)
	if err != nil {
		return 0, fmt.Errorf("batch read ring: %w", err)
	}
	defer ring.Close()
	if align > 0 {
		return readWindows(ring, align, reads, base, directScratchBytes/int64(parts))
	}
	local := make([]uring.Read, len(reads))
	for i, rd := range reads {
		local[i] = uring.Read{Off: rd.Off - base, Buf: rd.Buf}
	}
	return uring.ReadAll(ring, local, 0, uring.DefaultRetries)
}

// readWindows serves reads from an O_DIRECT ring: each read becomes the
// aligned window around it, read into a scratch of about scratchBytes
// (at least the largest window) and copied out, a scratchful of windows
// per ReadAll.
func readWindows(ring uring.Ring, align int, reads []uring.Read, base, scratchBytes int64) (int64, error) {
	var maxWin int64
	for _, rd := range reads {
		off := rd.Off - base
		maxWin = max(maxWin, AlignUp(off+int64(len(rd.Buf)), align)-AlignDown(off, align))
	}
	scratch := AlignedSlice(int(max(maxWin, AlignUp(scratchBytes, align))), align)
	var (
		moved   int64
		windows []uring.Read
		used    int64
		first   int // reads[first:] are not yet copied out
	)
	flush := func(end int) error {
		n, err := uring.ReadAll(ring, windows, align, uring.DefaultRetries)
		moved += n
		if err != nil {
			return err
		}
		for k, w := range windows {
			rd := reads[first+k]
			copy(rd.Buf, w.Buf[rd.Off-base-w.Off:])
		}
		windows, used, first = windows[:0], 0, end
		return nil
	}
	for i, rd := range reads {
		off := rd.Off - base
		lo, hi := AlignDown(off, align), AlignUp(off+int64(len(rd.Buf)), align)
		if used+hi-lo > int64(len(scratch)) {
			if err := flush(i); err != nil {
				return moved, err
			}
		}
		windows = append(windows, uring.Read{
			Off:  lo,
			Buf:  scratch[used : used+hi-lo],
			Need: int(off + int64(len(rd.Buf)) - lo),
		})
		used += hi - lo
	}
	return moved, flush(len(reads))
}
