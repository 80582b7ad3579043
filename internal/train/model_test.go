package train

import (
	"encoding/binary"
	"math"
	"testing"

	"ringsampler/internal/core"
	"ringsampler/internal/sample"
)

// testBatch hand-builds a 2-sampling-layer batch over 6 nodes with
// deterministic pseudo-random features: three level-0 targets (one with
// an empty neighbor list, one with a duplicate neighbor), and a level-1
// frontier that is the sort+dedup union of level-0's neighbors, each
// with its own neighbors — the exact shape the sampler emits.
func testBatch(dim int) *core.Batch {
	nodes := []uint32{0, 1, 2, 3, 4, 5}
	feats := make([]byte, len(nodes)*dim*4)
	rng := sample.NewRNG(0x7e57)
	for i := range nodes {
		for d := 0; d < dim; d++ {
			binary.LittleEndian.PutUint32(feats[(i*dim+d)*4:], math.Float32bits(float32(rng.Float64())))
		}
	}
	return &core.Batch{
		Layers: []core.Layer{
			{
				Targets:   []uint32{2, 0, 5},
				Starts:    []int64{0, 3, 3, 5},
				Neighbors: []uint32{1, 4, 1, 3, 2},
			},
			{
				Targets:   []uint32{1, 2, 3, 4},
				Starts:    []int64{0, 2, 3, 3, 5},
				Neighbors: []uint32{0, 5, 3, 2, 2},
			},
		},
		FeatNodes:  nodes,
		Features:   feats,
		FeatureDim: dim,
	}
}

func testLabels(n, classes int) []uint32 {
	rng := sample.NewRNG(0x1ab5)
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32n(uint32(classes))
	}
	return out
}

// lossOnly runs the forward pass and returns the mean loss.
func lossOnly(t *testing.T, m *Model, b *core.Batch, labels []uint32) float64 {
	t.Helper()
	_, loss, _, err := m.forward(b, labels)
	if err != nil {
		t.Fatal(err)
	}
	return loss
}

// TestGradientCheck verifies every layer's analytic gradient against a
// central finite difference, for both supported depths and both
// aggregator input shapes (raw features at the deepest layer, hidden
// states above it). f32 forward noise bounds the achievable agreement,
// hence the mixed absolute/relative tolerance.
func TestGradientCheck(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"1layer", Config{FeatureDim: 5, Hidden: 4, Classes: 3, Layers: 1, LR: 0.1, Seed: 3}},
		{"2layer", Config{FeatureDim: 5, Hidden: 4, Classes: 3, Layers: 2, LR: 0.1, Seed: 3}},
		{"2layer-wide", Config{FeatureDim: 3, Hidden: 6, Classes: 4, Layers: 2, LR: 0.1, Seed: 9}},
	}
	tensorName := func(cfg Config, ti int) string {
		l := ti / 3
		if l >= cfg.Layers {
			if ti == cfg.Layers*3 {
				return "Wout"
			}
			return "Bout"
		}
		return []string{"Wself", "Wneigh", "B"}[ti%3]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := testBatch(tc.cfg.FeatureDim)
			labels := testLabels(6, tc.cfg.Classes)
			m, err := NewModel(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, _, _, err := m.forward(b, labels)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.backward(b, st); err != nil {
				t.Fatal(err)
			}
			const eps = 1e-2
			for ti, tensor := range m.params.tensors() {
				grads := m.grad.tensors()[ti]
				for i := range tensor {
					orig := tensor[i]
					tensor[i] = orig + eps
					up := lossOnly(t, m, b, labels)
					tensor[i] = orig - eps
					down := lossOnly(t, m, b, labels)
					tensor[i] = orig
					fd := (up - down) / (2 * eps)
					an := float64(grads[i])
					tol := 1e-3 + 0.02*math.Max(math.Abs(fd), math.Abs(an))
					if math.Abs(fd-an) > tol {
						t.Errorf("%s[%d] (layer %d): analytic %.6g vs finite-diff %.6g (tol %.2g)",
							tensorName(tc.cfg, ti), i, ti/3, an, fd, tol)
					}
				}
			}
		})
	}
}

// TestStepDecreasesLoss sanity-checks that repeated SGD steps on a
// fixed batch actually learn it.
func TestStepDecreasesLoss(t *testing.T) {
	cfg := Config{FeatureDim: 5, Hidden: 8, Classes: 3, Layers: 2, LR: 0.5, Seed: 1}
	b := testBatch(cfg.FeatureDim)
	labels := testLabels(6, cfg.Classes)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := m.Step(b, labels)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 60; i++ {
		if last, _, err = m.Step(b, labels); err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %.4f, after 60 steps %.4f", first, last)
	}
}

// TestModelValidation covers the config and batch-shape rejections.
func TestModelValidation(t *testing.T) {
	good := Config{FeatureDim: 5, Hidden: 4, Classes: 3, Layers: 2, LR: 0.1}
	bad := []Config{
		{FeatureDim: 0, Hidden: 4, Classes: 3, Layers: 1, LR: 0.1},
		{FeatureDim: 5, Hidden: 0, Classes: 3, Layers: 1, LR: 0.1},
		{FeatureDim: 5, Hidden: 4, Classes: 1, Layers: 1, LR: 0.1},
		{FeatureDim: 5, Hidden: 4, Classes: 3, Layers: 0, LR: 0.1},
		{FeatureDim: 5, Hidden: 4, Classes: 3, Layers: MaxLayers + 1, LR: 0.1},
		{FeatureDim: 5, Hidden: 4, Classes: 3, Layers: 1, LR: 0},
	}
	for i, cfg := range bad {
		if _, err := NewModel(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	m, err := NewModel(good)
	if err != nil {
		t.Fatal(err)
	}
	labels := testLabels(6, good.Classes)

	// Feature-less batch (FetchFeatures off).
	noFeat := testBatch(good.FeatureDim)
	noFeat.FeatureDim = 0
	if _, _, err := m.Step(noFeat, labels); err == nil {
		t.Error("feature-less batch accepted")
	}
	// Too-shallow batch.
	shallow := testBatch(good.FeatureDim)
	shallow.Layers = shallow.Layers[:1]
	if _, _, err := m.Step(shallow, labels); err == nil {
		t.Error("1-sampling-layer batch accepted by 2-layer model")
	}
	// Label out of model range.
	badLab := testLabels(6, good.Classes)
	badLab[2] = uint32(good.Classes)
	if _, _, err := m.Step(testBatch(good.FeatureDim), badLab); err == nil {
		t.Error("out-of-range label accepted")
	}
	// Target outside the label array.
	if _, _, err := m.Step(testBatch(good.FeatureDim), testLabels(2, good.Classes)); err == nil {
		t.Error("target beyond label array accepted")
	}
}

// TestWeightsDigestDeterministic: same config → same initial digest;
// different seed → different digest; digest changes after a step.
func TestWeightsDigestDeterministic(t *testing.T) {
	cfg := Config{FeatureDim: 5, Hidden: 4, Classes: 3, Layers: 2, LR: 0.1, Seed: 42}
	a, _ := NewModel(cfg)
	b, _ := NewModel(cfg)
	if a.WeightsDigest() != b.WeightsDigest() {
		t.Fatal("identical configs produced different initial weights")
	}
	cfg.Seed = 43
	c, _ := NewModel(cfg)
	if a.WeightsDigest() == c.WeightsDigest() {
		t.Fatal("different seeds produced identical initial weights")
	}
	before := a.WeightsDigest()
	if _, _, err := a.Step(testBatch(cfg.FeatureDim), testLabels(6, cfg.Classes)); err != nil {
		t.Fatal(err)
	}
	if a.WeightsDigest() == before {
		t.Fatal("weights digest unchanged by an SGD step")
	}
}
