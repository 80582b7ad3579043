package storage

import (
	"fmt"
	"os"
	"runtime"

	"ringsampler/internal/uring"
)

// directScratchBytes bounds the aligned scratch a batch read on an
// O_DIRECT handle bounces its windows through: windows are read a
// scratchful at a time, so memory does not grow with the batch.
const directScratchBytes = 4 << 20

// ReadBatch fills every read's Buf from the edge file, Off being a
// GLOBAL byte offset as for ReadAt, in one pass through a ring with many
// reads in flight — the access path of consumers that read many ranges
// at once (the cache builders). It returns the bytes moved from the
// file: the requested bytes on a buffered handle, the aligned windows
// around them on an O_DIRECT one.
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

// readBatch reads reads from f, whose first byte is global offset base,
// through a one-shot ring: io_uring where the probe allows it, the pread
// pool otherwise. Each read's Need is ignored; every Buf is filled.
func readBatch(f *os.File, align int, reads []uring.Read, base int64) (int64, error) {
	if len(reads) == 0 {
		return 0, nil
	}
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
		return 0, fmt.Errorf("storage: batch read ring: %w", err)
	}
	defer ring.Close()
	var moved int64
	if align == 0 {
		local := make([]uring.Read, len(reads))
		for i, rd := range reads {
			local[i] = uring.Read{Off: rd.Off - base, Buf: rd.Buf}
		}
		moved, err = uring.ReadAll(ring, local, 0, uring.DefaultRetries)
	} else {
		moved, err = readWindows(ring, align, reads, base)
	}
	if err != nil {
		return moved, fmt.Errorf("storage: read %s: %w", f.Name(), err)
	}
	return moved, nil
}

// readWindows serves reads from an O_DIRECT ring: each read becomes the
// aligned window around it, read into scratch and copied out, a
// scratchful of windows per ReadAll.
func readWindows(ring uring.Ring, align int, reads []uring.Read, base int64) (int64, error) {
	var maxWin int64
	for _, rd := range reads {
		off := rd.Off - base
		maxWin = max(maxWin, AlignUp(off+int64(len(rd.Buf)), align)-AlignDown(off, align))
	}
	scratch := AlignedSlice(int(max(maxWin, directScratchBytes)), align)
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
