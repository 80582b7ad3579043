package train_test

import (
	"context"
	"testing"

	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/train"
	"ringsampler/internal/uring"
)

const (
	testDim     = 8
	testClasses = 4
)

// testLabeledDataset generates a small labeled+featured R-MAT graph.
func testLabeledDataset(t *testing.T) *storage.Dataset {
	t.Helper()
	dir := t.TempDir()
	_, err := gen.GenerateWith(dir, "tiny-train", "rmat", 2_000, 30_000, 11,
		gen.Options{FeatureDim: testDim, NumClasses: testClasses})
	if err != nil {
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

func trainCfg(threads int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Fanouts = []int{8, 5}
	cfg.BatchSize = 64
	cfg.Threads = threads
	cfg.Seed = 7
	cfg.FetchFeatures = true
	return cfg
}

func newTrainer(t *testing.T, ds *storage.Dataset) *train.Trainer {
	t.Helper()
	labels, err := ds.Labels()
	if err != nil {
		t.Fatal(err)
	}
	m, err := train.NewModel(train.Config{
		FeatureDim: testDim, Hidden: 8, Classes: testClasses,
		Layers: 2, LR: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &train.Trainer{Model: m, Labels: labels}
}

// runEpochs trains `epochs` epochs from a fresh model and returns the
// per-epoch stats.
func runEpochs(t *testing.T, ds *storage.Dataset, threads, epochs int, serialized bool) []*train.EpochStats {
	t.Helper()
	s, err := core.New(ds, trainCfg(threads), uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(t, ds)
	stats, err := tr.Run(context.Background(), s, testTargets(ds, 320), epochs, serialized)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != epochs {
		t.Fatalf("got %d epoch stats, want %d", len(stats), epochs)
	}
	return stats
}

// TestTrainThreadInvariance is the training pipeline's headline
// determinism guarantee: after 3 epochs the loss curve and the final
// weights are BIT-identical at 1 vs 4 worker threads — the sampler
// delivers the same batch stream in order, and the model reduces
// gradients in fixed order, so f32 non-associativity never sees a
// reordering. scripts/check.sh gates on this under -race.
func TestTrainThreadInvariance(t *testing.T) {
	ds := testLabeledDataset(t)
	ref := runEpochs(t, ds, 1, 3, false)
	got := runEpochs(t, ds, 4, 3, false)
	for e := range ref {
		if ref[e].Loss != got[e].Loss || ref[e].Accuracy != got[e].Accuracy {
			t.Fatalf("epoch %d: loss/accuracy diverge across threads: %v/%v vs %v/%v",
				e, ref[e].Loss, ref[e].Accuracy, got[e].Loss, got[e].Accuracy)
		}
		if ref[e].WeightsDigest != got[e].WeightsDigest {
			t.Fatalf("epoch %d: weights diverge across threads: %s vs %s",
				e, ref[e].WeightsDigest, got[e].WeightsDigest)
		}
	}
}

// TestTrainOverlappedMatchesSerialized: the double-buffered pipeline
// and the strictly serialized reference consume identical batch
// streams, so their weight trajectories are bit-identical — the
// overlap is free, not approximate.
func TestTrainOverlappedMatchesSerialized(t *testing.T) {
	ds := testLabeledDataset(t)
	over := runEpochs(t, ds, 4, 2, false)
	ser := runEpochs(t, ds, 4, 2, true)
	for e := range over {
		if over[e].WeightsDigest != ser[e].WeightsDigest {
			t.Fatalf("epoch %d: overlapped weights %s != serialized %s",
				e, over[e].WeightsDigest, ser[e].WeightsDigest)
		}
		if over[e].Loss != ser[e].Loss {
			t.Fatalf("epoch %d: overlapped loss %v != serialized %v", e, over[e].Loss, ser[e].Loss)
		}
		if over[e].Sampled != ser[e].Sampled {
			t.Fatalf("epoch %d: sampled entries differ: %d vs %d", e, over[e].Sampled, ser[e].Sampled)
		}
	}
}

// TestTrainLearns: multi-epoch training on the synthetic labels
// actually reduces loss and beats chance accuracy — the labels are
// linearly realizable from the features by construction, so a failure
// here means the model or the label generator regressed.
func TestTrainLearns(t *testing.T) {
	ds := testLabeledDataset(t)
	stats := runEpochs(t, ds, 4, 5, false)
	first, last := stats[0], stats[len(stats)-1]
	if last.Loss >= first.Loss {
		t.Fatalf("loss did not decrease over 5 epochs: %.4f -> %.4f", first.Loss, last.Loss)
	}
	chance := 1.0 / float64(testClasses)
	if last.Accuracy <= chance {
		t.Fatalf("epoch-5 accuracy %.3f not above chance %.3f", last.Accuracy, chance)
	}
	for _, st := range stats {
		if st.Seconds <= 0 || st.ComputeSeconds <= 0 {
			t.Fatalf("epoch %d: non-positive timings: %+v", st.Epoch, st)
		}
		if st.OverlapEfficiency < 0 || st.OverlapEfficiency > 1 {
			t.Fatalf("epoch %d: overlap efficiency %v outside [0,1]", st.Epoch, st.OverlapEfficiency)
		}
		if st.Sampled == 0 || st.EntriesPerSec <= 0 {
			t.Fatalf("epoch %d: no sampling throughput recorded: %+v", st.Epoch, st)
		}
	}
}

// TestTrainRequiresFeatures: a sampler without the feature stage is
// rejected up front by both modes.
func TestTrainRequiresFeatures(t *testing.T) {
	ds := testLabeledDataset(t)
	cfg := trainCfg(1)
	cfg.FetchFeatures = false
	s, err := core.New(ds, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(t, ds)
	targets := testTargets(ds, 64)
	if _, err := tr.EpochOverlapped(context.Background(), s, targets, 0); err == nil {
		t.Fatal("overlapped epoch accepted a sampler without FetchFeatures")
	}
	if _, err := tr.EpochSerialized(context.Background(), s, targets, 0); err == nil {
		t.Fatal("serialized epoch accepted a sampler without FetchFeatures")
	}
}

// TestTrainEpochStatsCarryIO: the trainer's report carries the sampler's
// I/O counters of the same epoch — the runner's merged counters when
// overlapped, the single worker's when serialized — and, through them,
// the feature cache's learning curve: in either mode the same weights
// and losses as without a cache, and overlapped a hit ratio that rises
// once an epoch has been learned from.
func TestTrainEpochStatsCarryIO(t *testing.T) {
	ds := testLabeledDataset(t)
	targets := testTargets(ds, 320)
	run := func(cacheRows int64, serialized bool) []*train.EpochStats {
		cfg := trainCfg(2)
		cfg.FeatureCacheBudgetBytes = cacheRows * (ds.FeatureStride() + 48)
		s, err := core.New(ds, cfg, uring.BackendPool)
		if err != nil {
			t.Fatal(err)
		}
		if cacheRows > 0 && !s.FeatureCacheAdaptive() {
			t.Fatalf("%d rows do not make the feature cache adaptive", cacheRows)
		}
		stats, err := newTrainer(t, ds).Run(context.Background(), s, targets, 3, serialized)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	plain := run(0, false)
	for _, serialized := range []bool{false, true} {
		for e, st := range run(0, serialized) {
			if st.IO.Reads == 0 || st.IO.FeatReads == 0 || st.IO.DeviceBytes() != plain[e].IO.DeviceBytes() {
				t.Fatalf("serialized=%v epoch %d: IO %+v, want the overlapped run's %d device bytes", serialized, e, st.IO, plain[e].IO.DeviceBytes())
			}
		}
	}
	hit := func(st *train.EpochStats) float64 {
		return float64(st.IO.FeatCacheHits) / float64(st.IO.FeatCacheHits+st.IO.FeatCacheMisses)
	}
	for _, serialized := range []bool{false, true} {
		cached := run(500, serialized)
		for e, st := range cached {
			if st.WeightsDigest != plain[e].WeightsDigest || st.Loss != plain[e].Loss {
				t.Fatalf("serialized=%v epoch %d: the feature cache changed the weights or the loss", serialized, e)
			}
			// Only the epoch runner re-admits; a serialized run's cache
			// stays as built.
			if (e == 0 || serialized) != (st.IO.FeatCacheAdmitted == 0) {
				t.Fatalf("serialized=%v epoch %d admitted %d rows", serialized, e, st.IO.FeatCacheAdmitted)
			}
		}
		if !serialized && hit(cached[1]) <= hit(cached[0]) {
			t.Fatalf("feature hit ratio %.4f → %.4f did not rise after the first re-admission", hit(cached[0]), hit(cached[1]))
		}
	}
}
