package train_test

import (
	"context"
	"math"
	"testing"

	"ringsampler/internal/core"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/train"
	"ringsampler/internal/uring"
)

// goldenEpochs pins the 3-epoch loss curve (exact float64 bit patterns)
// and per-epoch weight digests of a fixed training run on the
// checked-in dataset, recorded at commit 2a79aa2 — before the trainer's
// kernels (4-row matvec, dense position arrays, zero-copy feature view,
// reused step buffers) and the sampler's (radix frontier build,
// map-free ring, lean request state) were replaced. Any reordering of
// an f32 summation, any changed batch byte, moves these values.
var goldenEpochs = []struct {
	lossBits uint64
	accuracy float64
	digest   string
}{
	{0x400134a0a9517ce3, 0.1064453125, "2ce02acc7d89b564"},
	{0x4000b2d204a024bd, 0.12744140625, "66af5f857cafa7c0"},
	{0x40007034467ca7b6, 0.154296875, "ef6639cdec8039f5"},
}

func TestTrainGoldenCurve(t *testing.T) {
	ds, err := storage.Open("../../benchdata/bench/ogbn-papers-div20000")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	labels, err := ds.Labels()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Fanouts = []int{10, 10}
	cfg.BatchSize = 256
	cfg.Threads = 2
	cfg.Seed = 7
	cfg.FetchFeatures = true
	s, err := core.New(ds, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	m, err := train.NewModel(train.Config{
		FeatureDim: ds.FeatureDim(), Hidden: 16, Classes: ds.NumClasses(),
		Layers: 2, LR: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := sample.NewRNG(2024)
	targets := make([]uint32, 2048)
	for i := range targets {
		targets[i] = r.Uint32n(uint32(ds.NumNodes()))
	}
	tr := &train.Trainer{Model: m, Labels: labels}
	stats, err := tr.Run(context.Background(), s, targets, len(goldenEpochs), false)
	if err != nil {
		t.Fatal(err)
	}
	for e, want := range goldenEpochs {
		got := stats[e]
		if bits := math.Float64bits(got.Loss); bits != want.lossBits || got.Accuracy != want.accuracy || got.WeightsDigest != want.digest {
			t.Errorf("epoch %d: loss %#016x (%v) accuracy %v digest %s; want %#016x (%v) %v %s",
				e, bits, got.Loss, got.Accuracy, got.WeightsDigest,
				want.lossBits, math.Float64frombits(want.lossBits), want.accuracy, want.digest)
		}
	}
}
