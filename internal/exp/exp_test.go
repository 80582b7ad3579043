package exp

import (
	"os"
	"path/filepath"
	"testing"

	"ringsampler/internal/core"
	"ringsampler/internal/device"
	"ringsampler/internal/sample"
	"ringsampler/internal/simrun"
	"ringsampler/internal/uring"
)

// benchRoot is the checked-in benchmark dataset root, relative to this
// package directory.
const benchRoot = "../../benchdata/bench"

// TestPrepareReusesCheckedInDataset: the committed
// ogbn-papers-div20000 files must verify as-is — Prepare opens them
// without regenerating (the benchmarks depend on this to avoid a
// generation step on every run).
func TestPrepareReusesCheckedInDataset(t *testing.T) {
	edgePath := filepath.Join(benchRoot, "ogbn-papers-div20000", "edges.dat")
	before, err := os.Stat(edgePath)
	if err != nil {
		t.Fatalf("checked-in benchdata missing: %v", err)
	}
	p, err := Prepare(benchRoot, "ogbn-papers", 20_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Manifest.NumNodes != 5550 || p.Manifest.NumEdges != 80_000 {
		t.Fatalf("unexpected scaled counts: %+v", p.Manifest)
	}
	after, err := os.Stat(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("Prepare rewrote checked-in benchdata instead of reusing it")
	}

	// The prepared dataset must actually sample through the real engine.
	ds, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	s, err := core.New(ds, core.DefaultConfig(), uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r := sample.NewRNG(1)
	targets := make([]uint32, 32)
	for i := range targets {
		targets[i] = r.Uint32n(uint32(ds.NumNodes()))
	}
	b, err := w.SampleBatch(targets)
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalSampled() == 0 {
		t.Fatal("checked-in dataset sampled nothing")
	}
}

func TestPrepareRejectsUnknownDataset(t *testing.T) {
	if _, err := Prepare(t.TempDir(), "no-such-graph", 1000, false); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestAblationGuards pins the two headline ablation properties on the
// checked-in dataset at the benchmark configuration: offset-based
// sampling moves ≥10x fewer device bytes than full-neighborhood
// fetching, and the async pipeline beats the synchronous one.
func TestAblationGuards(t *testing.T) {
	p, err := Prepare(benchRoot, "ogbn-papers", 20_000, false)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := core.SimConfig{
		Config:       core.DefaultConfig(),
		ScaleDivisor: 20_000,
		BudgetBytes:  simrun.GBytes(1),
		Targets:      512,
		WorkloadSeed: 1,
	}
	base.Config.BatchSize = 128
	base.Config.Threads = 8

	offset := core.RunSim(ds, device.NVMe(), base)
	if offset.Err != nil {
		t.Fatal(offset.Err)
	}
	syncCfg := base
	syncCfg.Config.AsyncPipeline = false
	syn := core.RunSim(ds, device.NVMe(), syncCfg)
	if syn.Err != nil {
		t.Fatal(syn.Err)
	}
	fullCfg := base
	fullCfg.Config.OffsetSampling = false
	full := core.RunSim(ds, device.NVMe(), fullCfg)
	if full.Err != nil {
		t.Fatal(full.Err)
	}

	if offset.Sampled != full.Sampled {
		t.Fatalf("modes sampled different totals: %d vs %d", offset.Sampled, full.Sampled)
	}
	ratio := float64(full.DeviceBytes) / float64(offset.DeviceBytes)
	if ratio < 10 {
		t.Fatalf("offset sampling moved only %.2fx fewer device bytes (%d vs %d), want ≥10x",
			ratio, offset.DeviceBytes, full.DeviceBytes)
	}
	if offset.ModeledSeconds >= syn.ModeledSeconds {
		t.Fatalf("async pipeline (%.6fs) not faster than sync (%.6fs)",
			offset.ModeledSeconds, syn.ModeledSeconds)
	}
}

// TestRunSystemLabels: RingSampler results are honest engine runs;
// every baseline is explicitly labeled a stub.
func TestRunSystemLabels(t *testing.T) {
	p, err := Prepare(benchRoot, "ogbn-papers", 20_000, false)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	o := Options{Divisor: 20_000, Targets: 64, BatchSize: 32, Threads: 4}
	for _, sys := range Fig4Systems {
		r := RunSystem(ds, sys, o, 0, core.DefaultFanouts)
		if r.System != sys {
			t.Fatalf("result labeled %q, want %q", r.System, sys)
		}
		if sys == "RingSampler" {
			if r.Stub {
				t.Fatal("RingSampler result marked as stub")
			}
			if r.Err != nil {
				t.Fatalf("RingSampler: %v", r.Err)
			}
			if r.Seconds() <= 0 || r.DeviceBytes == 0 {
				t.Fatalf("RingSampler degenerate result: %+v", r)
			}
			continue
		}
		if !r.Stub {
			t.Fatalf("%s result not marked as stub", sys)
		}
		if r.Err != nil && !r.OOM {
			t.Fatalf("%s: unexpected error: %v", sys, r.Err)
		}
		// Out-of-core baselines move data across the device boundary;
		// a zero count means the stub forgot to model it.
		if (sys == "Marius" || sys == "SmartSSD") && r.Err == nil && r.DeviceBytes == 0 {
			t.Fatalf("%s reports zero device traffic", sys)
		}
	}
	if r := RunSystem(ds, "NoSuchSystem", o, 0, core.DefaultFanouts); r.Err == nil {
		t.Fatal("unknown system accepted")
	}
}

// TestFaultSweepQuick: one low-rate fault point on the checked-in
// dataset — the engine must absorb the injected faults and produce
// byte-identical samples. Fast enough to run everywhere.
func TestFaultSweepQuick(t *testing.T) {
	p, err := Prepare(benchRoot, "ogbn-papers", 20_000, false)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	o := Options{Targets: 128, BatchSize: 64}
	points, err := FaultSweep(ds, o, uring.BackendPool, []float64{0.02}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want reference + 1 rate", len(points))
	}
	assertFaultPoints(t, points)
}

// TestFaultSweepFull: the full rate sweep (up to 20% per-request
// faults) across pool and sim backends. Slow by design; gated behind
// -short.
func TestFaultSweepFull(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep skipped in -short mode")
	}
	p, err := Prepare(benchRoot, "ogbn-papers", 20_000, false)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	o := Options{Targets: 512, BatchSize: 128}
	rates := []float64{0.01, 0.05, 0.1, 0.2}
	backends := []uring.Backend{uring.BackendPool, uring.BackendSim}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	for _, be := range backends {
		t.Run(string(be), func(t *testing.T) {
			points, err := FaultSweep(ds, o, be, rates, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(points) != len(rates)+1 {
				t.Fatalf("got %d points, want %d", len(points), len(rates)+1)
			}
			assertFaultPoints(t, points)
			for _, pt := range points[1:] {
				if pt.Injected.Total() == 0 {
					t.Fatalf("rate %v injected nothing", pt.Rate)
				}
			}
		})
	}
}

func assertFaultPoints(t *testing.T, points []FaultPoint) {
	t.Helper()
	for _, pt := range points {
		t.Logf("rate %.2f: %.0f entries/s, io %+v, injected %+v",
			pt.Rate, pt.EntriesPerSec, pt.IO, pt.Injected)
		if !pt.Identical {
			t.Fatalf("rate %v corrupted the sampled output", pt.Rate)
		}
		if pt.Entries == 0 || pt.EntriesPerSec <= 0 {
			t.Fatalf("rate %v degenerate point: %+v", pt.Rate, pt)
		}
		if pt.Rate > 0 && pt.IO.Retries == 0 {
			t.Fatalf("rate %v: faults injected but no retries recorded", pt.Rate)
		}
	}
}

func TestFig6Milestones(t *testing.T) {
	o := Options{Divisor: 20_000, Targets: 8, BatchSize: 1, Threads: 1}
	res, err := Fig6(benchRoot, o, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 8 {
		t.Fatalf("Requests = %d, want 8", res.Requests)
	}
	if len(res.Milestones) != 4 {
		t.Fatalf("got %d milestones, want 4", len(res.Milestones))
	}
	prev := 0.0
	for _, m := range res.Milestones {
		if m.TimeSec < prev || m.TimeSec <= 0 {
			t.Fatalf("milestones not monotonically increasing: %+v", res.Milestones)
		}
		prev = m.TimeSec
	}
}
