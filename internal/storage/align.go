package storage

import "ringsampler/internal/uring"

// Alignment helpers for the O_DIRECT read path. O_DIRECT demands that
// file offsets, transfer lengths, and user memory are all multiples of
// the device's logical block size; these helpers do the rounding and
// produce block-aligned slices from Go's (merely word-aligned) heap.

// AlignDown rounds v down to a multiple of align (a power of two).
func AlignDown(v int64, align int) int64 {
	return v &^ (int64(align) - 1)
}

// AlignUp rounds v up to a multiple of align (a power of two).
func AlignUp(v int64, align int) int64 {
	return (v + int64(align) - 1) &^ (int64(align) - 1)
}

// AlignedSlice returns a length-n byte slice whose backing memory
// starts on an align-byte boundary (align a power of two), suitable as
// an O_DIRECT read destination. The slice keeps its own backing array
// alive; no registration or pinning is implied.
func AlignedSlice(n, align int) []byte { return uring.AlignedSlice(n, align) }
