package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ringsampler/internal/core"
	"ringsampler/internal/sample"
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

// TestPrepareRejectsBadDivisor: a divisor that is not positive, or that
// scales the graph to nothing, is refused before anything is written.
func TestPrepareRejectsBadDivisor(t *testing.T) {
	for _, tc := range []struct {
		name    string
		divisor int
	}{
		{"zero", 0},
		{"negative", -20_000},
		{"collapses", 1 << 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			if _, err := Prepare(root, "ogbn-papers", tc.divisor, false); err == nil {
				t.Fatalf("divisor %d accepted", tc.divisor)
			}
			if left, _ := os.ReadDir(root); len(left) != 0 {
				t.Fatalf("rejected divisor %d still wrote %d entries", tc.divisor, len(left))
			}
		})
	}
}

// TestPrepareRegenMatchesCheckedIn: regenerating the benchmark dataset
// from scratch reproduces every checked-in file byte for byte, which is
// what lets cmd/benchprep -regen rebuild benchdata on any checkout.
func TestPrepareRegenMatchesCheckedIn(t *testing.T) {
	p, err := Prepare(t.TempDir(), "ogbn-papers", 20_000, true)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(benchRoot, "ogbn-papers-div20000")
	files, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		a, err := os.ReadFile(filepath.Join(want, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(p.Dir, f.Name()))
		if err != nil {
			t.Fatalf("regenerated dataset lacks %s: %v", f.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("regenerated %s differs from the checked-in file", f.Name())
		}
	}
}

// TestUniformTargetsMatchesUint32Draw: below 2³² nodes the 64-bit draw
// returns exactly what the old rng.Uint32n draw did, stream position
// included, so switching to it moved no digest.
func TestUniformTargetsMatchesUint32Draw(t *testing.T) {
	const numNodes, n = 5550, 512
	rng, r := sample.NewRNG(1), sample.NewRNG(1)
	got := UniformTargets(&rng, numNodes, n)
	for i, g := range got {
		if want := r.Uint32n(numNodes); g != want {
			t.Fatalf("target %d = %d, Uint32n draws %d", i, g, want)
		}
	}
	if len(got) != n {
		t.Fatalf("drew %d targets, want %d", len(got), n)
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
