package core

import (
	"testing"

	"ringsampler/internal/uring"
)

// TestSampleBatchAllocFlat pins the steady-state allocation count of
// Worker.SampleBatchSeeded: once a worker's workspaces have grown to a
// batch's size, the only allocations left are the returned Batch itself
// — the Batch, its Layers, and each layer's Targets, Starts and
// Neighbors (plus FeatNodes and Features when the feature stage runs).
// Plans, request tables, frontiers, sort scratch and stage buffers are
// all reused.
func TestSampleBatchAllocFlat(t *testing.T) {
	ds := openDS(t, testFeatureDatasetDir(t), false)
	backends := []uring.Backend{uring.BackendSim}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	targets := testTargets(ds, 256)
	for _, be := range backends {
		for _, features := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Fanouts = []int{10, 5, 5}
			cfg.FetchFeatures = features
			s, err := New(ds, cfg, be)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.NewWorker(0)
			if err != nil {
				t.Fatal(err)
			}
			sampleOne := func() {
				if _, err := w.SampleBatchSeeded(targets, 42); err != nil {
					t.Fatal(err)
				}
			}
			sampleOne() // grow the workspaces
			want := 2 + 3*len(cfg.Fanouts)
			if features {
				want += 2
			}
			if got := testing.AllocsPerRun(20, sampleOne); got > float64(want) {
				t.Errorf("%s features=%v: %v allocations per batch, want at most the returned Batch's %d", be, features, got, want)
			}
			w.Close()
		}
	}
}
