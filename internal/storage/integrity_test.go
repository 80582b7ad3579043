package storage_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringsampler/internal/gen"
	"ringsampler/internal/storage"
)

// genDataset generates a featureful, labeled rmat dataset in a fresh
// temp dir.
func genDataset(tb testing.TB, nodes, edges int64, dim, classes int, seed uint64) string {
	tb.Helper()
	dir := tb.TempDir()
	opts := gen.Options{FeatureDim: dim, NumClasses: classes}
	if _, err := gen.GenerateWith(dir, "integrity", "rmat", nodes, edges, seed, opts); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// TestOpenRejectsEveryCorruption: on a tiny generated dataset (2 KiB of
// features, 1 KiB of labels) every single-bit flip, every 32-bit burst
// at a 4-byte offset, a swap of two differing records, and a one-byte
// truncation or extension of either file fails Open, with an error that
// names the damaged file. CRC-32C detects every burst of up to 32 bits;
// this checks the validator actually applies it to every byte.
func TestOpenRejectsEveryCorruption(t *testing.T) {
	const nodes, dim, classes = 256, 2, 4
	dir := genDataset(t, nodes, 2048, dim, classes, 5)
	files := []struct {
		name   string
		record int // bytes per node
	}{
		{storage.FeaturesFile, dim * storage.FeatureElemBytes},
		{storage.LabelsFile, storage.LabelBytes},
	}
	corruptions := []struct {
		name string
		// each hands every corrupted variant of orig to try; at locates
		// the corruption for the failure message.
		each func(orig []byte, record int, try func(mut []byte, at int))
	}{
		{"bit flip", func(orig []byte, _ int, try func([]byte, int)) {
			mut := bytes.Clone(orig)
			for bit := 0; bit < 8*len(orig); bit++ {
				mut[bit/8] ^= 1 << (bit % 8)
				try(mut, bit)
				mut[bit/8] ^= 1 << (bit % 8)
			}
		}},
		{"32-bit burst", func(orig []byte, _ int, try func([]byte, int)) {
			mut := bytes.Clone(orig)
			for off := 0; off+4 <= len(orig); off += 4 {
				for i := off; i < off+4; i++ {
					mut[i] ^= 0xff
				}
				try(mut, off)
				copy(mut[off:off+4], orig[off:])
			}
		}},
		{"swapped records", func(orig []byte, record int, try func([]byte, int)) {
			first := orig[:record]
			for v := 1; v*record < len(orig); v++ {
				rec := orig[v*record : (v+1)*record]
				if !bytes.Equal(rec, first) {
					mut := bytes.Clone(orig)
					copy(mut, rec)
					copy(mut[v*record:], first)
					try(mut, v)
					return
				}
			}
		}},
		{"truncated by one byte", func(orig []byte, _ int, try func([]byte, int)) {
			try(orig[:len(orig)-1], len(orig)-1)
		}},
		{"extended by one byte", func(orig []byte, _ int, try func([]byte, int)) {
			try(append(bytes.Clone(orig), 0), len(orig))
		}},
	}
	for _, f := range files {
		path := filepath.Join(dir, f.name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range corruptions {
			t.Run(f.name+"/"+c.name, func(t *testing.T) {
				defer func() {
					if err := os.WriteFile(path, orig, 0o644); err != nil {
						t.Fatal(err)
					}
				}()
				tried := 0
				c.each(orig, f.record, func(mut []byte, at int) {
					tried++
					if err := os.WriteFile(path, mut, 0o644); err != nil {
						t.Fatal(err)
					}
					ds, err := storage.Open(dir)
					if err == nil {
						ds.Close()
						t.Fatalf("%s at %d: Open accepted the corrupted file", c.name, at)
					}
					if !strings.Contains(err.Error(), f.name) {
						t.Fatalf("%s at %d: error %q does not name %s", c.name, at, err, f.name)
					}
				})
				if tried == 0 {
					t.Fatal("no corruption tried")
				}
			})
		}
	}
	ds, err := storage.Open(dir)
	if err != nil {
		t.Fatalf("restored dataset fails Open: %v", err)
	}
	ds.Close()
}

// TestOpenReportsFirstFailureInOrder: Open validates the offset index
// (with the edge-file size), the feature file and the label file
// concurrently, yet with any two of offsets, edges, features and labels
// damaged it must return exactly the error the sequential checks did —
// that of the file first in that order, as when it alone is damaged —
// on every one of 100 runs.
func TestOpenReportsFirstFailureInOrder(t *testing.T) {
	dir := genDataset(t, 20_000, 80_000, 16, 5, 3) // features span several checksum chunks
	damage := []struct {
		file string
		mut  func([]byte) []byte
	}{
		{storage.OffsetsFile, func(b []byte) []byte { return b[:len(b)-storage.OffsetBytes] }},
		{storage.EdgesFile, func(b []byte) []byte { return b[:len(b)-storage.EntryBytes] }},
		{storage.FeaturesFile, func(b []byte) []byte { b[len(b)*2/3] ^= 0x10; return b }},
		{storage.LabelsFile, func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }},
	}
	orig := make([][]byte, len(damage))
	for i, d := range damage {
		b, err := os.ReadFile(filepath.Join(dir, d.file))
		if err != nil {
			t.Fatal(err)
		}
		orig[i] = b
	}
	write := func(i int, b []byte) {
		if err := os.WriteFile(filepath.Join(dir, damage[i].file), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	openErr := func() string {
		ds, err := storage.Open(dir)
		if err == nil {
			ds.Close()
			return ""
		}
		return err.Error()
	}
	alone := make([]string, len(damage))
	for i, d := range damage {
		write(i, d.mut(bytes.Clone(orig[i])))
		alone[i] = openErr()
		write(i, orig[i])
		if !strings.Contains(alone[i], d.file) {
			t.Fatalf("damaged %s alone: error %q does not name it", d.file, alone[i])
		}
	}
	for i := range damage {
		for j := i + 1; j < len(damage); j++ {
			write(i, damage[i].mut(bytes.Clone(orig[i])))
			write(j, damage[j].mut(bytes.Clone(orig[j])))
			for run := 0; run < 100; run++ {
				if got := openErr(); got != alone[i] {
					t.Fatalf("%s and %s damaged, run %d: error %q, want %s's %q", damage[i].file, damage[j].file, run, got, damage[i].file, alone[i])
				}
			}
			write(i, orig[i])
			write(j, orig[j])
		}
	}
	if got := openErr(); got != "" {
		t.Fatalf("restored dataset fails Open: %s", got)
	}
}

// TestLabelsRejectsFileReplacedAfterOpen: Labels re-verifies what it
// loads. Two datasets of the same shape from different seeds have label
// files of the same size with every id in range, so only the checksum
// tells them apart; copying B's labels over A's after A was opened must
// make A's Labels fail rather than return B's labels.
func TestLabelsRejectsFileReplacedAfterOpen(t *testing.T) {
	a := genDataset(t, 500, 4000, 4, 3, 1)
	b := genDataset(t, 500, 4000, 4, 3, 2)
	labB, err := os.ReadFile(filepath.Join(b, storage.LabelsFile))
	if err != nil {
		t.Fatal(err)
	}
	labA, err := os.ReadFile(filepath.Join(a, storage.LabelsFile))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(labA, labB) {
		t.Fatal("both seeds produced the same labels: the test exercises nothing")
	}
	ds, err := storage.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := os.WriteFile(filepath.Join(a, storage.LabelsFile), labB, 0o644); err != nil {
		t.Fatal(err)
	}
	if labels, err := ds.Labels(); err == nil {
		t.Fatalf("Labels returned %d labels from a file replaced after Open", len(labels))
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("error %q does not name the checksum", err)
	}
}

// BenchmarkOpen times Open on a generated dataset of a few MB with
// features and labels. SetBytes covers the feature and label files, the
// bytes Open checksums, so the MB/s figure is the validator's rate.
func BenchmarkOpen(b *testing.B) {
	const nodes, dim = 32_768, 32
	dir := genDataset(b, nodes, 8*nodes, dim, 8, 1)
	b.SetBytes(nodes * (dim*storage.FeatureElemBytes + storage.LabelBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := storage.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		ds.Close()
	}
}
