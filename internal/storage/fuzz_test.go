package storage

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen throws arbitrary manifest/offset-index/edge-file byte
// triples at open-time validation: Open must reject truncated,
// corrupted, or inconsistent datasets with an error — never panic, and
// never return a dataset whose offset index could send the sampler out
// of bounds. Seed corpus (testdata/fuzz/FuzzOpen) covers the valid
// dataset plus each single-file corruption; run with
// `go test -fuzz=FuzzOpen ./internal/storage` to explore further.
func FuzzOpen(f *testing.F) {
	// A valid 4-node dataset and targeted corruptions of each file.
	man, off, edges := validDatasetBytes(f)
	f.Add(man, off, edges)
	f.Add(man, off, edges[:len(edges)-3])        // truncated edge file
	f.Add(man, off[:len(off)-1], edges)          // truncated offset index
	f.Add(man[:len(man)/2], off, edges)          // truncated manifest JSON
	f.Add([]byte("not json"), off, edges)        // garbage manifest
	f.Add(man, flipByte(off, 8), edges)          // non-monotone offsets
	f.Add(man, flipByte(off, len(off)-1), edges) // offsets overrun the edge file
	f.Add(corruptCount(man), off, edges)         // manifest/file count mismatch
	f.Add([]byte(`{"version":2,"name":"x","numNodes":-4,"numEdges":6,"binBytes":24}`), off, edges)
	f.Add([]byte{}, []byte{}, []byte{})

	f.Fuzz(func(t *testing.T, man, off, edges []byte) {
		dir := t.TempDir()
		for _, w := range []struct {
			name string
			data []byte
		}{
			{ManifestFile, man},
			{OffsetsFile, off},
			{EdgesFile, edges},
		} {
			if err := os.WriteFile(filepath.Join(dir, w.name), w.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := Open(dir)
		if err != nil {
			return // rejected, as corrupted inputs should be
		}
		defer ds.Close()
		// Accepted datasets must be internally consistent: every node's
		// range stays within the edge file.
		n := ds.NumNodes()
		if n <= 0 {
			t.Fatalf("Open accepted dataset with %d nodes", n)
		}
		for v := int64(0); v < n; v++ {
			st, en := ds.Range(uint32(v))
			if st < 0 || st > en || en > ds.NumEdges() {
				t.Fatalf("node %d range [%d,%d) escapes %d edges", v, st, en, ds.NumEdges())
			}
		}
	})
}

// validDatasetBytes builds the canonical tiny dataset in a temp dir and
// returns its three files' bytes.
func validDatasetBytes(f *testing.F) (man, off, edges []byte) {
	f.Helper()
	dir := f.TempDir()
	w, err := NewWriter(dir, "fuzz", 4)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {2, 0}, {2, 3}, {3, 2}} {
		if err := w.Add(e[0], e[1]); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	return read(ManifestFile), read(OffsetsFile), read(EdgesFile)
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	if len(out) > 0 {
		out[i%len(out)] ^= 0xff
	}
	return out
}

func corruptCount(man []byte) []byte {
	out := append([]byte(nil), man...)
	for i := range out {
		if out[i] == '6' {
			out[i] = '7'
			break
		}
	}
	return out
}
