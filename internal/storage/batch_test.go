package storage_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// TestReadBatch: the batch reads of both files return the file's bytes
// for arbitrary (unaligned) ranges, on a buffered handle and on an
// O_DIRECT one, where the windows of one batch add up to several times
// the bounded scratch and the last one straddles EOF. The bytes moved
// are the requested bytes when buffered and the aligned windows when
// O_DIRECT.
func TestReadBatch(t *testing.T) {
	dir := genDataset(t, 20_000, 60_000, 16, 0, 9)
	for _, direct := range []bool{false, true} {
		ds, err := storage.OpenWith(dir, storage.OpenOptions{Direct: direct})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if direct && ds.DirectAlign() == 0 {
			t.Skipf("O_DIRECT unavailable: %v", ds.DirectFallback())
		}
		for _, f := range []struct {
			name  string
			align int
			read  func([]byte, []uring.Read) (int64, error)
		}{
			{storage.EdgesFile, ds.DirectAlign(), ds.ReadBatch},
			{storage.FeaturesFile, ds.FeatureAlign(), ds.FeatureReadBatch},
		} {
			raw, err := os.ReadFile(filepath.Join(dir, f.name))
			if err != nil {
				t.Fatal(err)
			}
			size := int64(len(raw))
			rng := rand.New(rand.NewSource(int64(len(raw))))
			reads := []uring.Read{{Off: size - 3, Len: 3}}
			var dstLen int64 = 3
			for len(reads) < 3000 {
				off := rng.Int63n(size)
				n := 1 + rng.Int63n(min(size-off, 3000))
				reads = append(reads, uring.Read{Off: off, Pos: dstLen, Len: n})
				dstLen += n
			}
			dst := make([]byte, dstLen)
			var want int64
			for _, rd := range reads {
				lo, hi := rd.Off, rd.Off+rd.Len
				if f.align > 0 {
					lo, hi = storage.AlignDown(lo, f.align), min(storage.AlignUp(hi, f.align), size)
				}
				want += hi - lo
			}
			moved, err := f.read(dst, reads)
			if err != nil {
				t.Fatalf("%s (direct %v): %v", f.name, direct, err)
			}
			for _, rd := range reads {
				if !bytes.Equal(dst[rd.Pos:rd.Pos+rd.Len], raw[rd.Off:rd.Off+rd.Len]) {
					t.Fatalf("%s (direct %v): %d bytes at %d differ from the file", f.name, direct, rd.Len, rd.Off)
				}
			}
			if moved != want {
				t.Fatalf("%s (direct %v): moved %d bytes, want %d", f.name, direct, moved, want)
			}
		}
	}
}

// TestReadBatchFirstPartError: a batch is read in GOMAXPROCS parts at
// once, and when several fail the error is the first part's — for reads
// planned in file order, the lowest offset's — whichever part finished
// first, on each of 100 runs. A read past the end of the file completes
// with zero bytes until its retry budget runs out.
func TestReadBatchFirstPartError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir := genDataset(t, 20_000, 60_000, 0, 0, 9)
	ds, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	size := ds.NumEdges() * storage.EntryBytes
	// 400 equal reads cut into four parts of 100; parts 1, 2 and 3 each
	// hold one read past the end of the file, at ascending offsets.
	reads := make([]uring.Read, 400)
	for i := range reads {
		reads[i] = uring.Read{Off: int64(i) * 512, Pos: int64(i) * 64, Len: 64}
	}
	dst := make([]byte, 400*64)
	for _, i := range []int{150, 250, 350} {
		reads[i].Off = size + int64(i)
	}
	for run := 0; run < 100; run++ {
		_, err := ds.ReadBatch(dst, reads)
		var ioe *uring.IOError
		if !errors.As(err, &ioe) || !errors.Is(err, io.ErrUnexpectedEOF) || ioe.Offset != size+150 {
			t.Fatalf("run %d: error %v, want the read at offset %d past the end", run, err, size+150)
		}
	}
}
