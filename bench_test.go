// Go micro-benchmarks of the real engine: dataset preprocessing
// (Table 1) and sampling epochs/batches on real files and real rings.
// They run on small generated graphs; measured end-to-end numbers come
// from the benchmark harness, go run -C cmd/bench . (cmd/bench/README.md).
package ringsampler

import (
	"fmt"
	"path/filepath"
	"testing"

	"ringsampler/internal/core"
	"ringsampler/internal/uring"
)

// BenchmarkTable1Preprocess measures the full preprocessing pipeline
// (generate -> external sort -> edge file + offset index) behind
// Table 1's datasets.
func BenchmarkTable1Preprocess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(b.TempDir(), "t1")
		if err := GenerateDataset(dir, "rmat", 5550, 80_000, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealEpochThreads measures the real engine's parallel epoch
// runner across thread counts. Output is thread-count-invariant by
// construction, so what varies across sub-benchmarks is purely
// throughput.
func BenchmarkRealEpochThreads(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "epoch")
	if err := GenerateDataset(dir, "rmat", 20_000, 300_000, 3); err != nil {
		b.Fatal(err)
	}
	ds, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	targets := make([]uint32, 2048)
	for i := range targets {
		targets[i] = uint32(i * 37 % 20_000)
	}
	for _, threads := range []int{1, 2, 4, 8} {
		threads := threads
		b.Run(fmt.Sprintf("%dthreads", threads), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Seed = 7
			cfg.BatchSize = 256
			cfg.Threads = threads
			s, err := NewSampler(ds, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var eps float64
			for i := 0; i < b.N; i++ {
				st, err := RunEpoch(s, targets, nil)
				if err != nil {
					b.Fatal(err)
				}
				eps = st.EntriesPerSec
			}
			b.ReportMetric(eps, "entries/s")
		})
	}
}

// BenchmarkRealSampleBatchOpts measures the real engine end to end (real
// files, real rings) on each available backend.
func BenchmarkRealSampleBatchOpts(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "real")
	if err := GenerateDataset(dir, "rmat", 20_000, 300_000, 3); err != nil {
		b.Fatal(err)
	}
	ds, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()

	backends := []uring.Backend{uring.BackendPool}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	targets := make([]uint32, 256)
	for i := range targets {
		targets[i] = uint32(i * 37 % 20_000)
	}
	for _, be := range backends {
		be := be
		b.Run(string(be), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Seed = 7
			s, err := core.New(ds, cfg, be)
			if err != nil {
				b.Fatal(err)
			}
			w, err := s.NewWorker(0)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ResetTimer()
			var sampled int64
			for i := 0; i < b.N; i++ {
				bs, err := w.SampleBatchOpts(targets, BatchOpts{Seed: cfg.Seed})
				if err != nil {
					b.Fatal(err)
				}
				sampled = bs.TotalSampled()
			}
			b.ReportMetric(float64(sampled), "entries/op")
		})
	}
}
