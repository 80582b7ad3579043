package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"ringsampler/internal/gen"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// The feature cache is filled by one batch read through a ring, at build
// and at every re-admission (DESIGN.md §10). These tests pin what that
// fill reads, what it charges, and how it fails.

// fillShare is what an epoch's re-admission added to its IO: the epoch's
// totals minus its workers' sum.
func fillShare(st *EpochStats) (reads, bytes, slack int64) {
	var w IOStats
	for _, p := range st.PerWorker {
		w.Add(p)
	}
	return st.IO.FeatReads - w.FeatReads, st.IO.FeatBytesRead - w.FeatBytesRead, st.IO.AlignSlackBytes - w.AlignSlackBytes
}

// assertPinnedRowsMatchFile checks every pinned feature row against the
// feature file's bytes.
func assertPinnedRowsMatchFile(t *testing.T, s *Sampler, feats []byte, when string) {
	t.Helper()
	stride := s.ds.FeatureStride()
	for _, v := range pinnedFeatureRows(s) {
		if want := feats[int64(v)*stride : int64(v+1)*stride]; !bytes.Equal(s.featHot.Lookup(v), want) {
			t.Fatalf("%s: cached row of node %d differs from the file", when, v)
		}
	}
}

// TestFeatureCacheFillCounts: on a buffered dataset the re-admission fill
// of each epoch issues exactly the merged runs the one-read-at-a-time
// fill issued — the reads and bytes recorded on that implementation —
// charges no slack, and leaves every pinned row equal to the file.
func TestFeatureCacheFillCounts(t *testing.T) {
	dir := testFeatureDatasetDir(t)
	feats, err := os.ReadFile(filepath.Join(dir, storage.FeaturesFile))
	if err != nil {
		t.Fatal(err)
	}
	ds := openDS(t, dir, false)
	targets := trainSplit(ds, 200, 640)
	s := newLearningSampler(t, ds, learnConfig(ds, 2), uring.BackendPool)
	assertPinnedRowsMatchFile(t, s, feats, "build")
	want := [][3]int64{{0, 0, 0}, {recordedFill1Admitted, recordedFill1Reads, recordedFill1Bytes}, {recordedFill2Admitted, recordedFill2Reads, recordedFill2Bytes}}
	for e, w := range want {
		st, err := s.RunEpochSeeded(context.Background(), epochSeed(e), targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		reads, fillBytes, slack := fillShare(st)
		if got := [3]int64{st.IO.FeatCacheAdmitted, reads, fillBytes}; got != w || slack != 0 {
			t.Fatalf("epoch %d fill: admitted/reads/bytes %v, slack %d; recorded %v, no slack", e, got, slack, w)
		}
		assertPinnedRowsMatchFile(t, s, feats, "after re-admission")
	}
}

// Recorded with TestFeatureCacheFillCounts' configuration on the fill
// that issued one pread per merged run.
const (
	recordedFill1Admitted, recordedFill1Reads, recordedFill1Bytes = 213, 189, 5112
	recordedFill2Admitted, recordedFill2Reads, recordedFill2Bytes = 34, 34, 816
)

// TestFeatureCacheDirectFillChargesSlack: on an O_DIRECT feature file the
// re-admission fill reads each merged run's aligned window, and the
// epoch charges exactly the windows' over-read to AlignSlackBytes — the
// same accounting every sampling read gets. The windows are worked out
// here from the rows that came in and the slots they landed in.
func TestFeatureCacheDirectFillChargesSlack(t *testing.T) {
	dir := testFeatureDatasetDir(t)
	feats, err := os.ReadFile(filepath.Join(dir, storage.FeaturesFile))
	if err != nil {
		t.Fatal(err)
	}
	ds := openDS(t, dir, true)
	align := ds.FeatureAlign()
	if align == 0 {
		t.Skipf("O_DIRECT unavailable here: %v", ds.DirectFallback())
	}
	stride, size := ds.FeatureStride(), int64(len(feats))
	targets := trainSplit(ds, 200, 640)
	s := newLearningSampler(t, ds, learnConfig(ds, 2), uring.BackendPool)
	assertPinnedRowsMatchFile(t, s, feats, "build")
	for e := 0; e < 3; e++ {
		before := map[uint32]bool{}
		for _, v := range pinnedFeatureRows(s) {
			before[v] = true
		}
		st, err := s.RunEpochSeeded(context.Background(), epochSeed(e), targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertPinnedRowsMatchFile(t, s, feats, "after re-admission")
		// Rows that came in, ascending, merge into one run while they are
		// adjacent in the file and in the cache.
		var want, admitted int64
		var runLo, runHi int64 = -1, -1
		var prev unsafe.Pointer
		closeRun := func() {
			if runLo >= 0 {
				want += min(storage.AlignUp(runHi, align), size) - storage.AlignDown(runLo, align) - (runHi - runLo)
			}
		}
		for _, v := range pinnedFeatureRows(s) {
			if before[v] {
				continue
			}
			admitted++
			at := unsafe.Pointer(unsafe.SliceData(s.featHot.Lookup(v)))
			off := int64(v) * stride
			if off == runHi && at == unsafe.Add(prev, stride) && runHi+stride-runLo <= 1<<20 {
				runHi += stride
			} else {
				closeRun()
				runLo, runHi = off, off+stride
			}
			prev = at
		}
		closeRun()
		if admitted != st.IO.FeatCacheAdmitted {
			t.Fatalf("epoch %d: %d rows came in, the epoch reports %d", e, admitted, st.IO.FeatCacheAdmitted)
		}
		_, fillBytes, slack := fillShare(st)
		if fillBytes != admitted*stride || slack != want {
			t.Fatalf("epoch %d fill: %d bytes with %d slack; the admitted rows are %d bytes in windows with %d slack",
				e, fillBytes, slack, admitted*stride, want)
		}
		if e > 0 && want == 0 {
			t.Fatalf("epoch %d: the fill's windows over-read nothing; the test exercises no slack", e)
		}
	}
}

// TestNewReturnsFillError: a cache fill that fails at build fails New
// with the read error — for the neighbor cache and the feature cache.
func TestNewReturnsFillError(t *testing.T) {
	for _, c := range []struct {
		file string
		cfg  func(*Config)
	}{
		{storage.EdgesFile, func(c *Config) { c.CacheBudgetBytes = 1 << 20 }},
		{storage.FeaturesFile, func(c *Config) { c.FeatureCacheBudgetBytes = 1 << 20 }},
	} {
		t.Run(c.file, func(t *testing.T) {
			dir := testFeatureDatasetDir(t)
			ds := openDS(t, dir, false)
			// Opened, then emptied: every fill read ends at EOF.
			if err := os.Truncate(filepath.Join(dir, c.file), 0); err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			c.cfg(&cfg)
			if _, err := New(ds, cfg, uring.BackendPool); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("New over a fill that reads past the end of the file: err %v", err)
			}
		})
	}
}

// BenchmarkNewFeatureCache times the cold start of a training sampler:
// New on a 100k-node featureful graph with a feature cache of a quarter
// of features.bin, which selects the rows and fills them through one
// ring. SetBytes is the pinned row bytes, so MB/s is the fill's rate
// including the select.
func BenchmarkNewFeatureCache(b *testing.B) {
	dir := b.TempDir()
	if _, err := gen.GenerateWith(dir, "coldstart", "rmat", 100_000, 800_000, 7, gen.Options{FeatureDim: 32}); err != nil {
		b.Fatal(err)
	}
	ds, err := storage.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	backend := uring.BackendPool
	if uring.Probe().Ring {
		backend = uring.BackendIOURing
	}
	cfg := DefaultConfig()
	cfg.FetchFeatures = true
	cfg.FeatureCacheBudgetBytes = ds.Manifest().FeatBytes / 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(ds, cfg, backend)
		if err != nil {
			b.Fatal(err)
		}
		_, pinned := s.FeatureCacheInfo()
		b.SetBytes(pinned)
	}
}

// BenchmarkNewNeighborCache times the cold start of a serving sampler:
// New on a 100k-node graph with a neighbor cache of a quarter of
// edges.dat, which selects the highest-degree lists and fills them.
// SetBytes is the pinned list bytes.
func BenchmarkNewNeighborCache(b *testing.B) {
	dir := b.TempDir()
	if _, err := gen.GenerateWith(dir, "coldstart", "rmat", 100_000, 800_000, 7, gen.Options{}); err != nil {
		b.Fatal(err)
	}
	ds, err := storage.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	backend := uring.BackendPool
	if uring.Probe().Ring {
		backend = uring.BackendIOURing
	}
	cfg := DefaultConfig()
	cfg.CacheBudgetBytes = ds.Manifest().BinBytes / 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(ds, cfg, backend)
		if err != nil {
			b.Fatal(err)
		}
		_, pinned := s.CacheInfo()
		b.SetBytes(pinned)
	}
}
