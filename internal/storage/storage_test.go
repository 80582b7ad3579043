package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// writeTestDataset builds a 4-node dataset with a known adjacency:
// node 0 -> {1,2,3}, node 1 -> {}, node 2 -> {0,3}, node 3 -> {2}.
func writeTestDataset(t *testing.T, dir string) {
	t.Helper()
	w, err := NewWriter(dir, "tiny", 4)
	if err != nil {
		t.Fatal(err)
	}
	edges := [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {2, 0}, {2, 3}, {3, 2}}
	for _, e := range edges {
		if err := w.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	man, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if man.NumEdges != 6 || man.BinBytes != 24 {
		t.Fatalf("manifest counts wrong: %+v", man)
	}
}

// edgesFromFile decodes dir's whole edge file straight from disk: the
// reference Dataset.ReadAt is checked against.
func edgesFromFile(t *testing.T, dir string) []uint32 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, EdgesFile))
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]uint32, len(data)/EntryBytes)
	for i := range edges {
		edges[i] = binary.LittleEndian.Uint32(data[i*EntryBytes:])
	}
	return edges
}

func TestWriterReaderRoundtrip(t *testing.T) {
	dir := t.TempDir()
	writeTestDataset(t, dir)
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	wantDeg := []int64{3, 0, 2, 1}
	for v, want := range wantDeg {
		if got := ds.Degree(uint32(v)); got != want {
			t.Fatalf("degree(%d) = %d, want %d", v, got, want)
		}
	}
	edges := edgesFromFile(t, dir)
	want := []uint32{1, 2, 3, 0, 3, 2}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges = %v, want %v", edges, want)
		}
	}
	st, en := ds.Range(2)
	if st != 3 || en != 5 {
		t.Fatalf("Range(2) = [%d,%d), want [3,5)", st, en)
	}
}

func TestWriterRejectsUnsortedAndOutOfRange(t *testing.T) {
	w, err := NewWriter(t.TempDir(), "bad", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(1, 1); err == nil {
		t.Fatal("out-of-order source accepted")
	}
	if err := w.Add(2, 9); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestOpenRejectsTruncatedFiles(t *testing.T) {
	for _, victim := range []string{EdgesFile, OffsetsFile} {
		dir := t.TempDir()
		writeTestDataset(t, dir)
		path := filepath.Join(dir, victim)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatalf("Open accepted truncated %s", victim)
		}
	}
}

func TestOpenRejectsManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	writeTestDataset(t, dir)
	man, err := loadManifest(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	man.NumEdges++
	man.BinBytes += EntryBytes
	if err := man.Save(filepath.Join(dir, ManifestFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted dataset with wrong manifest counts")
	}
}

// TestOpenRejectsLyingNodeCount: a manifest that claims 2^40 nodes over
// a 16-byte offset index is rejected by the index's size, with an error
// naming the file, before anything near the claimed 8 TiB is allocated.
func TestOpenRejectsLyingNodeCount(t *testing.T) {
	dir := t.TempDir()
	writeTestDataset(t, dir)
	man, err := loadManifest(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	man.NumNodes = 1 << 40
	if err := man.Save(filepath.Join(dir, ManifestFile)); err != nil {
		t.Fatal(err)
	}
	offPath := filepath.Join(dir, OffsetsFile)
	if err := os.Truncate(offPath, 16); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ds, err := Open(dir)
	runtime.ReadMemStats(&after)
	if err == nil {
		ds.Close()
		t.Fatal("Open accepted 2^40 nodes over a 16-byte offset index")
	}
	if want := fmt.Sprintf("storage: offset index %s is 16 bytes, want %d (truncated capture?)", offPath, (1<<40+1)*OffsetBytes); err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the manifest allocated %d bytes", grew)
	}
}

// TestReadAtEdgeCases pins Dataset.ReadAt's contract at the file
// boundaries — the hot-neighbor cache builder and the ring backends
// both read through the same pread semantics, so zero-length reads,
// reads ending exactly at EOF, reads crossing EOF, and reads starting
// at or past EOF must behave like pread(2).
func TestReadAtEdgeCases(t *testing.T) {
	dir := t.TempDir()
	writeTestDataset(t, dir) // 6 edges × 4 bytes = 24-byte edge file
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	size := ds.NumEdges() * EntryBytes

	// Zero-length read: 0 bytes, no error, at any offset.
	for _, off := range []int64{0, size / 2, size, size + 100} {
		n, err := ds.ReadAt(nil, off)
		if n != 0 || err != nil {
			t.Fatalf("zero-length read at %d: (%d, %v), want (0, nil)", off, n, err)
		}
	}

	// A read ending exactly at EOF returns full bytes. os.File.ReadAt
	// may report io.EOF alongside the full count; both are valid.
	buf := make([]byte, EntryBytes)
	n, err := ds.ReadAt(buf, size-EntryBytes)
	if n != EntryBytes || (err != nil && err != io.EOF) {
		t.Fatalf("read ending at EOF: (%d, %v), want (%d, nil|io.EOF)", n, err, EntryBytes)
	}
	// The last entry is node 3's single neighbor, 2.
	if got := binary.LittleEndian.Uint32(buf); got != 2 {
		t.Fatalf("last entry = %d, want 2", got)
	}

	// A read crossing EOF returns the in-range prefix and io.EOF.
	big := make([]byte, 16)
	n, err = ds.ReadAt(big, size-4)
	if n != 4 || err != io.EOF {
		t.Fatalf("read crossing EOF: (%d, %v), want (4, io.EOF)", n, err)
	}

	// Reads starting at EOF or past it return (0, io.EOF).
	for _, off := range []int64{size, size + 1, size + 1<<20} {
		n, err := ds.ReadAt(buf, off)
		if n != 0 || err != io.EOF {
			t.Fatalf("read at/past EOF offset %d: (%d, %v), want (0, io.EOF)", off, n, err)
		}
	}

	// ReadAt and the raw file must agree byte for byte over the whole file.
	all := make([]byte, size)
	if n, err := ds.ReadAt(all, 0); int64(n) != size || (err != nil && err != io.EOF) {
		t.Fatalf("full read: (%d, %v)", n, err)
	}
	edges := edgesFromFile(t, dir)
	if int64(len(edges)) != ds.NumEdges() {
		t.Fatalf("edge file holds %d entries, manifest says %d", len(edges), ds.NumEdges())
	}
	for i, e := range edges {
		if got := binary.LittleEndian.Uint32(all[i*EntryBytes:]); got != e {
			t.Fatalf("entry %d: ReadAt sees %d, the file holds %d", i, got, e)
		}
	}
}
