package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// testDataset generates a small deterministic R-MAT dataset on disk.
func testDataset(t *testing.T) *storage.Dataset {
	t.Helper()
	dir := t.TempDir()
	if _, err := gen.Generate(dir, "tiny", "rmat", 2_000, 30_000, 11); err != nil {
		t.Fatal(err)
	}
	ds, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

func testTargets(ds *storage.Dataset, n int) []uint32 {
	r := sample.NewRNG(99)
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.Uint32n(uint32(ds.NumNodes()))
	}
	return out
}

func sampleOnce(t *testing.T, ds *storage.Dataset, cfg Config, backend uring.Backend, targets []uint32) *Batch {
	t.Helper()
	s, err := New(ds, cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	b, err := w.SampleBatchOpts(targets, BatchOpts{Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func assertBatchesEqual(t *testing.T, a, b *Batch, label string) {
	t.Helper()
	if len(a.Layers) != len(b.Layers) {
		t.Fatalf("%s: layer counts differ: %d vs %d", label, len(a.Layers), len(b.Layers))
	}
	for li := range a.Layers {
		la, lb := &a.Layers[li], &b.Layers[li]
		if len(la.Targets) != len(lb.Targets) || len(la.Neighbors) != len(lb.Neighbors) {
			t.Fatalf("%s: layer %d shapes differ", label, li)
		}
		for i := range la.Targets {
			if la.Targets[i] != lb.Targets[i] {
				t.Fatalf("%s: layer %d target %d differs", label, li, i)
			}
		}
		for i := range la.Starts {
			if la.Starts[i] != lb.Starts[i] {
				t.Fatalf("%s: layer %d start %d differs", label, li, i)
			}
		}
		for i := range la.Neighbors {
			if la.Neighbors[i] != lb.Neighbors[i] {
				t.Fatalf("%s: layer %d neighbor %d differs: %d vs %d",
					label, li, i, la.Neighbors[i], lb.Neighbors[i])
			}
		}
	}
}

// TestWorkerDeterminism: two independent samplers with the same seed
// and worker ID produce bit-identical sample sets.
func TestWorkerDeterminism(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Seed = 7
	targets := testTargets(ds, 64)
	a := sampleOnce(t, ds, cfg, uring.BackendPool, targets)
	b := sampleOnce(t, ds, cfg, uring.BackendPool, targets)
	assertBatchesEqual(t, a, b, "pool/pool")
	if a.TotalSampled() == 0 {
		t.Fatal("deterministic batch sampled nothing")
	}
	// The deterministic sim backend must agree too: the sample set is a
	// property of (seed, worker ID), not of the I/O backend.
	c := sampleOnce(t, ds, cfg, uring.BackendSim, targets)
	assertBatchesEqual(t, a, c, "pool/sim")
	if uring.Probe().Ring {
		d := sampleOnce(t, ds, cfg, uring.BackendIOURing, targets)
		assertBatchesEqual(t, a, d, "pool/io_uring")
	}
}

// TestWorkerIDOnlyNamesWorker: what a worker samples is a function of
// the batch seed alone — workers 0 and 1 draw bit-identically from one
// seed, which is what lets a pool replace a worker under a fresh id —
// while distinct seeds draw independent samples.
func TestWorkerIDOnlyNamesWorker(t *testing.T) {
	ds := testDataset(t)
	s, err := New(ds, DefaultConfig(), uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	targets := testTargets(ds, 64)
	w0, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	w1, err := s.NewWorker(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	sampleWith := func(w *Worker, seed uint64) *Batch {
		b, err := w.SampleBatchOpts(targets, BatchOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := sampleWith(w0, 7)
	assertBatchesEqual(t, a, sampleWith(w1, 7), "workers 0 and 1, seed 7")
	if a.Digest() == sampleWith(w1, 8).Digest() {
		t.Fatal("seeds 7 and 8 drew identical samples")
	}
}

// The paper's §3 design points are checked on the real engine over the
// checked-in benchmark graph: 512 uniform targets (seed 1) in four
// batches of 128 through one worker, batch i seeded sample.Mix(1, i) as
// the epoch runner seeds it, on every available backend.
const (
	ablationData    = "../../benchdata/bench/ogbn-papers-div20000"
	ablationTargets = 512
	ablationBatch   = 128
)

func ablationBackends() []uring.Backend {
	backends := []uring.Backend{uring.BackendPool, uring.BackendSim}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	return backends
}

// runAblation samples the ablation workload under cfg (Seed and
// BatchSize are overridden) and returns the batches and the worker's
// I/O accounting.
func runAblation(t *testing.T, ds *storage.Dataset, cfg Config, backend uring.Backend) ([]*Batch, IOStats) {
	t.Helper()
	cfg.Seed = 1
	cfg.BatchSize = ablationBatch
	s, err := New(ds, cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r := sample.NewRNG(1)
	targets := make([]uint32, ablationTargets)
	for i := range targets {
		targets[i] = r.Uint32n(uint32(ds.NumNodes()))
	}
	var batches []*Batch
	for at := 0; at < len(targets); at += ablationBatch {
		b, err := w.SampleBatchOpts(targets[at:at+ablationBatch], BatchOpts{Seed: sample.Mix(cfg.Seed, uint64(at/ablationBatch))})
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	return batches, w.IOStats()
}

func openAblationData(t *testing.T) *storage.Dataset {
	t.Helper()
	ds, err := storage.Open(ablationData)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

func assertRunsEqual(t *testing.T, a, b []*Batch, label string) {
	t.Helper()
	for i := range a {
		assertBatchesEqual(t, a[i], b[i], label)
		if a[i].Digest() != b[i].Digest() {
			t.Fatalf("%s: batch %d digests differ", label, i)
		}
	}
}

// TestOffsetFullFetchSameSamples is the Fig 2 comparison on the one
// sampling path: every backend draws the same samples and reads exactly
// the sampled entries, while fetching each non-isolated target's whole
// list — what prior out-of-core systems read for the same draws — would
// move ≥ 10× more edge-file bytes. Both counts are exact: they move only
// if the draw or the read planner changes.
func TestOffsetFullFetchSameSamples(t *testing.T) {
	const wantOffsetBytes, wantFullBytes, wantFullLists = 134_068, 1_890_144, 3_498
	ds := openAblationData(t)
	var first []*Batch
	for _, be := range ablationBackends() {
		t.Run(string(be), func(t *testing.T) {
			batches, got := runAblation(t, ds, DefaultConfig(), be)
			if first == nil {
				first = batches
			}
			assertRunsEqual(t, first, batches, "backend "+string(be))
			var sampled, fullBytes, fullLists int64
			for _, b := range batches {
				for _, l := range b.Layers {
					sampled += int64(len(l.Neighbors))
					for _, v := range l.Targets {
						if st, en := ds.Range(v); en > st {
							fullBytes += (en - st) * storage.EntryBytes
							fullLists++
						}
					}
				}
			}
			if got.BytesRead != wantOffsetBytes || got.BytesRead != sampled*storage.EntryBytes {
				t.Fatalf("BytesRead %d, want %d = %d sampled entries × %d B",
					got.BytesRead, wantOffsetBytes, sampled, storage.EntryBytes)
			}
			if fullBytes != wantFullBytes || fullLists != wantFullLists {
				t.Fatalf("full fetch would read %d B over %d lists, want %d B over %d",
					fullBytes, fullLists, wantFullBytes, wantFullLists)
			}
			if ratio := float64(fullBytes) / float64(got.BytesRead); ratio < 10 {
				t.Fatalf("offset reads moved only %.2fx fewer bytes than full fetch, want ≥ 10x", ratio)
			}
		})
	}
}

// waitRecorder records, for every Wait on the wrapped ring, the min the
// engine asked for next to the reads in flight at that moment.
type waitRecorder struct {
	uring.Ring
	inflight int
	waits    []waitCall
}

type waitCall struct{ min, inflight int }

func (r *waitRecorder) Submit() (int, error) {
	n, err := r.Ring.Submit()
	r.inflight += n
	return n, err
}

func (r *waitRecorder) Wait(min int) ([]uring.CQE, error) {
	r.waits = append(r.waits, waitCall{min, r.inflight})
	cqes, err := r.Ring.Wait(min)
	r.inflight -= len(cqes)
	return cqes, err
}

// TestPipelineOverlapsGroups is the Fig 3b pipeline, watched at the
// ring. With a 16-entry ring every layer's reads wrap into several
// groups, and with the ring full and more reads queued behind it the
// engine waits for only part of the window, so the next group is
// prepared while the rest of this one is still in flight.
func TestPipelineOverlapsGroups(t *testing.T) {
	ds := openAblationData(t)
	for _, be := range ablationBackends() {
		t.Run(string(be), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RingSize = 16
			rec := &waitRecorder{}
			cfg.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
				if rec.Ring != nil {
					return nil, errors.New("a second ring would bypass the recorder")
				}
				rec.Ring = r
				return rec, nil
			}
			runAblation(t, ds, cfg, be)
			overlapped := false
			for _, w := range rec.waits {
				overlapped = overlapped || (w.inflight >= rec.Entries() && w.min < w.inflight)
			}
			if !overlapped {
				t.Fatalf("%d Waits, none left reads in flight while the full ring had more queued", len(rec.waits))
			}
		})
	}
}

// TestFrontierBuiltBetweenLayersOnly: a batch of n layers builds n−1
// frontiers. The last layer's sampled set feeds no further layer, and
// the feature stage builds its own node union, so a frontier after it
// is a sort+dedup of the largest layer for nothing.
func TestFrontierBuiltBetweenLayersOnly(t *testing.T) {
	ds := testDataset(t)
	targets := testTargets(ds, 64)
	frontiers := 0
	build := nextFrontier
	nextFrontier = func(l *Layer, dst []uint32, scratch *[]uint32) []uint32 {
		frontiers++
		return build(l, dst, scratch)
	}
	t.Cleanup(func() { nextFrontier = build })
	for _, fanouts := range [][]int{{7}, {5, 3}, DefaultFanouts} {
		t.Run(fmt.Sprintf("layers=%d", len(fanouts)), func(t *testing.T) {
			s, err := New(ds, DefaultConfig(), uring.BackendSim)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.NewWorker(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			for seed := range uint64(3) {
				before := frontiers
				if _, err := w.SampleBatchOpts(targets, BatchOpts{Fanouts: fanouts, Seed: seed}); err != nil {
					t.Fatal(err)
				}
				if got := frontiers - before; got != len(fanouts)-1 {
					t.Fatalf("fanouts %v: %d frontiers built for one batch, want %d", fanouts, got, len(fanouts)-1)
				}
			}
		})
	}
}

// TestNextFrontierForAcceptsUniformOnly: the router's frontier step
// builds exactly the worker's frontier — every layer's sampled
// neighbors sorted and deduplicated, so the next layer's picks arrive
// in file order — under "" or "uniform", and refuses any other strategy
// name by name.
func TestNextFrontierForAcceptsUniformOnly(t *testing.T) {
	ds := testDataset(t)
	b := sampleOnce(t, ds, DefaultConfig(), uring.BackendSim, testTargets(ds, 64))
	for li := range len(b.Layers) - 1 {
		want := b.Layers[li+1].Targets
		if !slices.Equal(want, sample.SortDedup(slices.Clone(b.Layers[li].Neighbors))) {
			t.Fatalf("layer %d targets are not layer %d's neighbors sorted and deduplicated", li+1, li)
		}
		for _, name := range []string{"", StrategyUniform} {
			got, err := NextFrontierFor(name, &b.Layers[li], nil)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("NextFrontierFor(%q) after layer %d: err %v, frontier differs from the worker's", name, li, err)
			}
		}
	}
	for _, name := range []string{"weighted", "walk", "Uniform"} {
		if _, err := NextFrontierFor(name, &b.Layers[0], nil); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Fatalf("NextFrontierFor(%q): err = %v, want a refusal naming it", name, err)
		}
	}
}
