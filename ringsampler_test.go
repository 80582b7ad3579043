package ringsampler

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestEndToEnd drives the public API exactly as the package doc shows:
// generate, open, sample.
func TestEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	if err := GenerateDataset(dir, "rmat", 2_000, 30_000, 3); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	cfg := DefaultConfig()
	cfg.Seed = 7
	s, err := NewSampler(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch, err := w.SampleBatchOpts([]uint32{1, 2, 3, 4, 5, 6, 7, 8}, BatchOpts{Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Layers) != len(cfg.Fanouts) {
		t.Fatalf("got %d layers, want %d", len(batch.Layers), len(cfg.Fanouts))
	}
	if batch.TotalSampled() == 0 {
		t.Fatal("end-to-end sample was empty")
	}
}

// TestGenerateDeterministicBytes: generating the same dataset twice
// produces byte-identical files — the property the checked-in
// benchmark data relies on.
func TestGenerateDeterministicBytes(t *testing.T) {
	root := t.TempDir()
	a, b := filepath.Join(root, "a"), filepath.Join(root, "b")
	if err := GenerateDataset(a, "rmat", 1_000, 10_000, 42); err != nil {
		t.Fatal(err)
	}
	if err := GenerateDataset(b, "rmat", 1_000, 10_000, 42); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"edges.dat", "offsets.idx", "manifest.json"} {
		fa, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		fb, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fa, fb) {
			t.Fatalf("%s differs between identical generations", name)
		}
	}
}

// TestRunEpochPublicAPI drives the root epoch entry point: batches
// arrive in order through the handler and the digests are identical at
// different thread counts.
func TestRunEpochPublicAPI(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	if err := GenerateDataset(dir, "rmat", 2_000, 30_000, 3); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	targets := make([]uint32, 200)
	for i := range targets {
		targets[i] = uint32(i * 7 % 2_000)
	}
	run := func(threads int) *EpochStats {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.BatchSize = 32
		cfg.Threads = threads
		s, err := NewSampler(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		st, err := RunEpoch(s, targets, func(i int, b *Batch) error {
			if i != next {
				t.Fatalf("batch %d delivered out of order (want %d)", i, next)
			}
			next++
			if b.TotalSampled() == 0 {
				t.Fatalf("batch %d sampled nothing", i)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != st.Batches {
			t.Fatalf("handler saw %d batches, want %d", next, st.Batches)
		}
		return st
	}
	a, b := run(1), run(4)
	if len(a.Digests) != len(b.Digests) {
		t.Fatalf("batch counts differ: %d vs %d", len(a.Digests), len(b.Digests))
	}
	for i := range a.Digests {
		if a.Digests[i] != b.Digests[i] {
			t.Fatalf("batch %d digest differs between 1 and 4 threads", i)
		}
	}
}

func TestGenerateRejectsUnknownKind(t *testing.T) {
	if err := GenerateDataset(t.TempDir(), "smallworld", 10, 10, 1); err == nil {
		t.Fatal("unknown graph kind accepted")
	}
}
