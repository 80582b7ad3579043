package storage

import (
	"path/filepath"
	"runtime"
	"testing"
)

// TestWriterChecksumMatchesFile: the checksums WriteFeatures and
// WriteLabels sum while writing, and Finish records, equal ChecksumFile
// of the files they wrote, at GOMAXPROCS 1 and 4 (each cuts the re-read
// into different chunks). The node counts put the feature file (16 B a
// node) and the label file (4 B a node) on both sides of the 64 KiB
// write buffer and of the 256 KiB checksumChunkBytes, and the largest
// into several chunks at 4 cores.
func TestWriterChecksumMatchesFile(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const dim, classes = 4, 7
	for _, nodes := range []int64{1, 4095, 4097, 16383, 16384, 16385, 65535, 65537, 200_003} {
		dir := t.TempDir()
		w, err := NewWriter(dir, "sum", nodes)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteFeatures(dim, func(v int64, vec []float32) {
			for d := range vec {
				vec[d] = float32(v*dim+int64(d)) * 0.5
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteLabels(classes, func(v int64) uint32 { return uint32(v*v) % classes }); err != nil {
			t.Fatal(err)
		}
		man, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, f := range []struct{ name, staged string }{
				{FeaturesFile, man.FeatChecksum}, {LabelsFile, man.LabelChecksum},
			} {
				got, err := ChecksumFile(filepath.Join(dir, f.name))
				if err != nil {
					t.Fatal(err)
				}
				if got != f.staged {
					t.Fatalf("%d nodes, %s at GOMAXPROCS %d: ChecksumFile %s, writer staged %s", nodes, f.name, procs, got, f.staged)
				}
			}
		}
	}
}
