package storage

import (
	"fmt"
	"os"
	"runtime"
	"sync"

	"ringsampler/internal/uring"
)

// ReadBatch fills dst from the edge file, read i landing at
// dst[Pos:Pos+Len] from GLOBAL byte offset Off as for ReadAt, in one pass
// through rings with many reads in flight, one ring per core — the access
// path of consumers that read many ranges at once (the cache builders).
// It returns the bytes moved from the file: the requested bytes on a
// buffered handle, the aligned windows around them on an O_DIRECT one.
func (d *Dataset) ReadBatch(dst []byte, reads []uring.Read) (int64, error) {
	return readBatch(d.f, d.directAlign, dst, reads, d.entryBase*EntryBytes)
}

// FeatureReadBatch is ReadBatch over the feature file, Off being a
// GLOBAL byte offset (node id * stride over the whole graph).
func (d *Dataset) FeatureReadBatch(dst []byte, reads []uring.Read) (int64, error) {
	if d.featF == nil {
		return 0, fmt.Errorf("storage: dataset %s has no feature file", d.dir)
	}
	return readBatch(d.featF, d.featAlign, dst, reads, d.shardLo*d.FeatureStride())
}

// readBatch reads reads from f, whose first byte is global offset base.
// The reads are cut into up to GOMAXPROCS contiguous parts of about equal
// cost, and each part goes through a one-shot ring of its own on a thread
// of its own: io_uring where the probe allows it, the pread pool
// otherwise. The bytes moved are summed over the parts; of several
// failing parts the first one's error is returned — the lowest-offset
// one, the callers planning their reads in file order — whichever
// finished first.
func readBatch(f *os.File, align int, dst []byte, reads []uring.Read, base int64) (int64, error) {
	cuts := cutParts(reads, runtime.GOMAXPROCS(0))
	moved := make([]int64, len(cuts)-1)
	errs := make([]error, len(cuts)-1)
	var wg sync.WaitGroup
	for p := range moved {
		wg.Add(1)
		go func() {
			defer wg.Done()
			moved[p], errs[p] = readPart(f, align, dst, reads[cuts[p]:cuts[p+1]], base)
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
// one ring costs ≈ 0.7 µs plus ≈ 0.2 ns per byte: rmat-1m's 20 MB
// neighbor cache fills its 283,074 shortest lists, 17.6 MB in 5,550
// reads, in ≈ 7.4 ms, and the 145 longest, 19.9 MB in 122 reads, in
// ≈ 3.9 ms (medians of 40 fills each, GOMAXPROCS 1). That is about 4 KiB.
const readCostBytes = 4 << 10

// cutParts cuts reads into at most parts contiguous parts of about equal
// cost — bytes plus readCostBytes per read, so that a few large runs and
// many small rows balance alike — and returns the cut points: part p is
// reads[cuts[p]:cuts[p+1]]. No part is empty; no reads, no parts.
func cutParts(reads []uring.Read, parts int) []int {
	parts = min(parts, len(reads))
	var total int64
	for _, rd := range reads {
		total += rd.Len + readCostBytes
	}
	cuts := []int{0}
	var sum int64
	for i, rd := range reads {
		sum += rd.Len + readCostBytes
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

// readPart reads one part of a batch through a ring and driver of its
// own.
func readPart(f *os.File, align int, dst []byte, reads []uring.Read, base int64) (int64, error) {
	// The ring stays on one thread from setup to teardown, as a pooled
	// worker's does for the length of each job.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ring, err := uring.New(uring.Auto(), f, uring.DefaultEntries)
	if err != nil {
		return 0, fmt.Errorf("batch read ring: %w", err)
	}
	defer ring.Close()
	local := make([]uring.Read, len(reads))
	for i, rd := range reads {
		local[i] = uring.Read{Off: rd.Off - base, Pos: rd.Pos, Len: rd.Len}
	}
	d := uring.Driver{Ring: ring, Align: align}
	err = d.Run(dst, local)
	return d.Stats.Bytes + d.Stats.SlackBytes, err
}
