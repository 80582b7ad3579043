package storage

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestCRC32Combine: joining the sums of any split of a buffer gives the
// sum of the whole, at the edges (empty halves, one-byte halves) and at
// random points, for lengths that cross every bit position of the
// combine's exponent loop.
func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 255, 256, 1000, 4096, 65537, 300_001} {
		data := make([]byte, n)
		rng.Read(data)
		whole := crc32.Update(0, castagnoli, data)
		splits := []int{0, n}
		if n > 0 {
			splits = append(splits, 1, n-1, rng.Intn(n+1), rng.Intn(n+1))
		}
		for _, at := range splits {
			a := crc32.Update(0, castagnoli, data[:at])
			b := crc32.Update(0, castagnoli, data[at:])
			if got := crc32Combine(a, b, int64(n-at)); got != whole {
				t.Fatalf("len %d split at %d: combined %08x, one pass %08x", n, at, got, whole)
			}
		}
	}
}

// TestCutChunks: for every core count and every file size around each
// of the first 40 chunk boundaries, the chunks tile [0, size) exactly —
// none empty, none starting past the end — in at most procs pieces.
func TestCutChunks(t *testing.T) {
	const c = checksumChunkBytes
	for procs := 1; procs <= 16; procs++ {
		for blocks := int64(0); blocks <= 40; blocks++ {
			for _, size := range []int64{blocks*c - 1, blocks * c, blocks*c + 1} {
				if size < 0 {
					continue
				}
				per, parts := cutChunks(size, procs)
				if parts < 1 || parts > procs || per%c != 0 {
					t.Fatalf("size %d procs %d: %d chunks of %d bytes", size, procs, parts, per)
				}
				if size == 0 {
					continue
				}
				if last := int64(parts-1) * per; last >= size || last+per < size {
					t.Fatalf("size %d procs %d: %d chunks of %d bytes leave the last at %d", size, procs, parts, per, last)
				}
			}
		}
	}
}

// TestChecksumFileChunked: ChecksumFile equals the one-pass CRC-32C for
// files around the chunk size and across several chunks, at several
// GOMAXPROCS settings (each changes where the chunks are cut) — among
// them sizes whose rounded-up chunk leaves fewer chunks than cores
// (4c−1 at 3, 5c+1 and 6c−1 at 4, 9c−1 at 8, and a 4,000,000-byte label
// file, 16 chunks, at 12).
func TestChecksumFileChunked(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(2))
	dir := t.TempDir()
	const c = checksumChunkBytes
	for _, n := range []int{0, 1, c - 1, c, c + 1, 3*c - 1, 4*c - 1, 5*c + 1, 5*c + 3, 6*c - 1, 9*c - 1, 4_000_000} {
		data := make([]byte, n)
		rng.Read(data)
		path := filepath.Join(dir, "f")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := formatChecksum(crc32.Checksum(data, castagnoli))
		for _, procs := range []int{1, 2, 3, 4, 8, 12} {
			runtime.GOMAXPROCS(procs)
			got, err := ChecksumFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%d bytes at GOMAXPROCS %d: ChecksumFile %s, one pass %s", n, procs, got, want)
			}
		}
	}
}

// TestReadLabelsChunked: the label pass decodes every node's label into
// place from every chunk, and with out-of-range labels in several chunks
// the error names the lowest bad node whichever chunk's goroutine
// finishes first.
func TestReadLabelsChunked(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const nodes = 3 * checksumChunkBytes / LabelBytes
	data := make([]byte, nodes*LabelBytes)
	for v := range nodes {
		data[v*LabelBytes] = byte(v % 4)
	}
	path := filepath.Join(t.TempDir(), LabelsFile)
	write := func() Manifest {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return Manifest{NumNodes: nodes, NumClasses: 4, LabelChecksum: formatChecksum(crc32.Checksum(data, castagnoli))}
	}
	man := write()
	for _, procs := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(procs)
		out := make([]uint32, nodes)
		if err := readLabels(path, man, out); err != nil {
			t.Fatal(err)
		}
		for v, lab := range out {
			if lab != uint32(v%4) {
				t.Fatalf("GOMAXPROCS %d: node %d decoded as %d, want %d", procs, v, lab, v%4)
			}
		}
	}
	for _, v := range []int{nodes - 1, 2*nodes/3 + 5, nodes/3 + 7} {
		data[v*LabelBytes] = 9
	}
	man = write()
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 20; run++ {
			err := readLabels(path, man, nil)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at node %d", nodes/3+7)) {
				t.Fatalf("GOMAXPROCS %d: error %v, want the first bad node %d", procs, err, nodes/3+7)
			}
		}
	}
}
