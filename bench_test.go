// Benchmarks mirroring the paper's evaluation, one per table/figure.
// Each benchmark runs its experiment at a reduced scale per iteration
// and reports the modeled epoch time as the "paper-facing" metric
// (modeled-s/op) next to Go's wall-clock numbers. These are micro-benches
// on the 5 550-node checked-in graph; measured end-to-end numbers come
// from the benchmark harness, go run -C cmd/bench . (cmd/bench/README.md).
package ringsampler

import (
	"fmt"
	"path/filepath"
	"testing"

	"ringsampler/internal/core"
	"ringsampler/internal/device"
	"ringsampler/internal/exp"
	"ringsampler/internal/simrun"
	"ringsampler/internal/uring"
)

// benchDivisor scales the paper's datasets down far enough for tight
// benchmark loops; benchOpts matches.
const benchDivisor = 20_000

func benchOpts() exp.Options {
	return exp.Options{
		Divisor:   benchDivisor,
		Targets:   512,
		BatchSize: 128,
		Threads:   8,
	}
}

// benchData prepares (once) and returns the benchmark dataset root.
var benchRoot = filepath.Join("benchdata", "bench")

func prepared(b *testing.B, name string) *exp.Prepared {
	b.Helper()
	p, err := exp.Prepare(benchRoot, name, benchDivisor, false)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

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

// BenchmarkFig4Systems runs one modeled epoch per system on the scaled
// ogbn-papers dataset (Figure 4's leftmost group).
func BenchmarkFig4Systems(b *testing.B) {
	p := prepared(b, "ogbn-papers")
	ds, err := p.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	for _, sys := range exp.Fig4Systems {
		sys := sys
		b.Run(sys, func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				res := exp.RunSystem(ds, sys, benchOpts(), 0, core.DefaultFanouts)
				if res.Err != nil && !res.OOM {
					b.Fatal(res.Err)
				}
				modeled = res.Seconds()
			}
			b.ReportMetric(modeled, "modeled-s/op")
		})
	}
}

// BenchmarkFig5Memory runs RingSampler's modeled epoch across the
// Figure 5 budgets.
func BenchmarkFig5Memory(b *testing.B) {
	p := prepared(b, "ogbn-papers")
	ds, err := p.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	for _, gb := range exp.Fig5Budgets {
		label := "unlimited"
		budget := int64(0)
		if gb > 0 {
			label = fmt.Sprintf("%gGB", gb)
			budget = simrun.GBytes(gb)
		}
		b.Run(label, func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				res := exp.RunSystem(ds, "RingSampler", benchOpts(), budget, core.DefaultFanouts)
				if res.Err != nil && !res.OOM {
					b.Fatal(res.Err)
				}
				modeled = res.Seconds()
			}
			b.ReportMetric(modeled, "modeled-s/op")
		})
	}
}

// BenchmarkFig6Inference runs the on-demand, batch-size-1 sampling
// workload behind the Figure 6 latency CDF.
func BenchmarkFig6Inference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig6(benchRoot, benchOpts(), 500)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Milestones) != 4 {
			b.Fatal("missing milestones")
		}
		b.ReportMetric(res.Milestones[3].TimeSec, "modeled-p99-s")
	}
}

// BenchmarkFig7Hops sweeps the sampling depth (Figure 7) for
// RingSampler.
func BenchmarkFig7Hops(b *testing.B) {
	p := prepared(b, "ogbn-papers")
	ds, err := p.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	for _, fanouts := range exp.Fig7Fanouts {
		fanouts := fanouts
		b.Run(fmt.Sprintf("%dhop", len(fanouts)), func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				res := exp.RunSystem(ds, "RingSampler", benchOpts(), 0, fanouts)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				modeled = res.Seconds()
			}
			b.ReportMetric(modeled, "modeled-s/op")
		})
	}
}

// BenchmarkFig8Threads sweeps the modeled thread count (Figure 8).
func BenchmarkFig8Threads(b *testing.B) {
	p := prepared(b, "ogbn-papers")
	ds, err := p.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	for _, threads := range []int{1, 4, 16, 64} {
		threads := threads
		b.Run(fmt.Sprintf("%dthreads", threads), func(b *testing.B) {
			o := benchOpts()
			o.Threads = threads
			var modeled float64
			for i := 0; i < b.N; i++ {
				res := exp.RunSystem(ds, "RingSampler", o, 0, core.DefaultFanouts)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				modeled = res.Seconds()
			}
			b.ReportMetric(modeled, "modeled-s/op")
		})
	}
}

// BenchmarkRealEpochThreads measures the real engine's parallel epoch
// runner across thread counts — the real-I/O companion to the modeled
// BenchmarkFig8Threads. Output is thread-count-invariant by
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

// BenchmarkAblationPipeline quantifies the async-vs-sync pipeline
// design choice (Figure 3b) under a tight budget.
func BenchmarkAblationPipeline(b *testing.B) {
	p := prepared(b, "ogbn-papers")
	ds, err := p.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	for _, async := range []bool{true, false} {
		async := async
		name := "async"
		if !async {
			name = "sync"
		}
		b.Run(name, func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				o := benchOpts()
				cfg := core.SimConfig{
					Config:       core.DefaultConfig(),
					ScaleDivisor: benchDivisor,
					BudgetBytes:  simrun.GBytes(1),
					Targets:      o.Targets,
					WorkloadSeed: 1,
				}
				cfg.Config.BatchSize = o.BatchSize
				cfg.Config.Threads = o.Threads
				cfg.Config.AsyncPipeline = async
				res := core.RunSim(ds, device.NVMe(), cfg)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				modeled = res.Seconds()
			}
			b.ReportMetric(modeled, "modeled-s/op")
		})
	}
}

// BenchmarkAblationOffset quantifies offset-based sampling against
// full-neighborhood fetching (the paper's core I/O-reduction claim).
func BenchmarkAblationOffset(b *testing.B) {
	p := prepared(b, "ogbn-papers")
	ds, err := p.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	for _, offset := range []bool{true, false} {
		offset := offset
		name := "offset"
		if !offset {
			name = "full-fetch"
		}
		b.Run(name, func(b *testing.B) {
			var bytes float64
			for i := 0; i < b.N; i++ {
				o := benchOpts()
				cfg := core.SimConfig{
					Config:       core.DefaultConfig(),
					ScaleDivisor: benchDivisor,
					BudgetBytes:  simrun.GBytes(1),
					Targets:      o.Targets,
					WorkloadSeed: 1,
				}
				cfg.Config.BatchSize = o.BatchSize
				cfg.Config.Threads = o.Threads
				cfg.Config.OffsetSampling = offset
				res := core.RunSim(ds, device.NVMe(), cfg)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				bytes = float64(res.DeviceBytes)
			}
			b.ReportMetric(bytes/(1<<20), "device-MB/op")
		})
	}
}

// BenchmarkRealSampleBatch measures the real engine end to end (real
// files, real rings) on each available backend.
func BenchmarkRealSampleBatch(b *testing.B) {
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
				bs, err := w.SampleBatch(targets)
				if err != nil {
					b.Fatal(err)
				}
				sampled = bs.TotalSampled()
			}
			b.ReportMetric(float64(sampled), "entries/op")
		})
	}
}
