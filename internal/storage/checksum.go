package storage

import (
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
)

// castagnoli is the CRC-32C polynomial table. CRC-32C is the on-disk
// format's one integrity checksum (DESIGN.md §10): hash/crc32 runs it
// on the SSE4.2 / ARMv8 CRC instructions, so checking a file costs
// about as much as reading it, and every error burst of up to 32 bits
// changes the sum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// formatChecksum renders a CRC-32C as the fixed-width 8-hex-digit form
// the manifest records.
func formatChecksum(sum uint32) string { return fmt.Sprintf("%08x", sum) }

// ChecksumFile returns the CRC-32C of path as the fixed-width hex digest
// recorded in (and verified against) the manifest's featChecksum and
// labelChecksum fields, computed by the same chunked, concurrent pass
// Open verifies with.
func ChecksumFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("storage: open %s for checksum: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return "", fmt.Errorf("storage: checksum %s: %w", path, err)
	}
	sum, err := checksum(f, fi.Size(), nil)
	if err != nil {
		return "", err
	}
	return formatChecksum(sum), nil
}

// checksumChunkBytes is the read size of the checksum pass and the
// granularity its chunks are cut at: a multiple of every record size
// (LabelBytes), so a visitor never sees a record split across buffers.
const checksumChunkBytes = 256 << 10

// checksum returns the CRC-32C of the first size bytes of f. The bytes
// are cut into up to GOMAXPROCS contiguous chunks, each read and summed
// by its own goroutine, and the chunk sums joined by crc32Combine — the
// result is exactly the one-pass sum. visit, when non-nil, sees every
// buffer (with its file offset) before it is summed, concurrently across
// chunks, and may fail it; a chunk stops at its first failure. Of
// several failures the one at the lowest offset is returned, so the
// outcome never depends on which goroutine finished first.
func checksum(f *os.File, size int64, visit func(off int64, b []byte) error) (uint32, error) {
	per, parts := cutChunks(size, runtime.GOMAXPROCS(0))
	chunk := func(k int) (lo, hi int64) {
		lo = int64(k) * per
		return lo, min(lo+per, size)
	}
	sums := make([]uint32, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for k := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := chunk(k)
			sums[k], errs[k] = checksumRange(f, lo, hi, visit)
		}()
	}
	wg.Wait()
	var sum uint32
	for k := range sums {
		if errs[k] != nil {
			return 0, errs[k]
		}
		lo, hi := chunk(k)
		sum = crc32Combine(sum, sums[k], hi-lo)
	}
	return sum, nil
}

// cutChunks cuts size bytes into at most procs contiguous chunks of per
// bytes each (the last one shorter), per a multiple of
// checksumChunkBytes. The count is derived from per, so every chunk
// starts inside the file: rounding per up can leave fewer chunks than
// procs. An empty file is one empty chunk.
func cutChunks(size int64, procs int) (per int64, parts int) {
	blocks := (size + checksumChunkBytes - 1) / checksumChunkBytes
	if blocks == 0 {
		return 0, 1
	}
	per = (blocks + int64(procs) - 1) / int64(procs) * checksumChunkBytes
	return per, int((size + per - 1) / per)
}

// checksumRange is one chunk of checksum: the CRC-32C of f's bytes
// [lo, hi), read a checksumChunkBytes buffer at a time.
func checksumRange(f *os.File, lo, hi int64, visit func(off int64, b []byte) error) (uint32, error) {
	var sum uint32
	buf := make([]byte, min(hi-lo, checksumChunkBytes))
	for off := lo; off < hi; {
		b := buf[:min(hi-off, int64(len(buf)))]
		if _, err := f.ReadAt(b, off); err != nil {
			return 0, fmt.Errorf("storage: read %s at byte %d: %w", f.Name(), off, err)
		}
		if visit != nil {
			if err := visit(off, b); err != nil {
				return 0, err
			}
		}
		sum = crc32.Update(sum, castagnoli, b)
		off += int64(len(b))
	}
	return sum, nil
}

// crc32Combine returns the CRC-32C of A‖B given crcA, crcB and len(B):
// crcA's register carried across lenB zero bytes — multiplication by
// x^(8·lenB) modulo the polynomial — then XORed with crcB (zlib's
// crc32_combine, over the Castagnoli polynomial). O(log lenB).
func crc32Combine(crcA, crcB uint32, lenB int64) uint32 {
	return multModP(x2nModP(lenB, 3), crcA) ^ crcB
}

// castagnoliReversed is the Castagnoli polynomial in the bit-reversed
// form crc32.Castagnoli also uses.
const castagnoliReversed = 0x82f63b78

// multModP multiplies a and b modulo the polynomial, in the reflected
// representation (x^0 is the top bit).
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				break
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ castagnoliReversed
		} else {
			b >>= 1
		}
	}
	return p
}

// x2nTable[k] is x^(2^k) modulo the polynomial.
var x2nTable = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = multModP(p, p)
	}
	return t
}()

// x2nModP returns x^(n·2^k) modulo the polynomial.
func x2nModP(n int64, k uint) uint32 {
	p := uint32(1) << 31 // x^0
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			p = multModP(x2nTable[k&31], p)
		}
		k++
	}
	return p
}
