package core

import (
	"fmt"

	"ringsampler/internal/sample"
)

// Shard-mode sampling (DESIGN.md §12).
//
// A batch's draw stream is one rolling RNG sequence: within a chunk the
// generator threads across every frontier node of a layer and then into
// the next layer. Splitting a graph by node range therefore cannot
// split the stream — every shard participating in a layer must replay
// the WHOLE frontier's draws, because the number of values a node
// consumes depends only on its degree (global offset index, present on
// every shard), never on its bytes. A shard runs the ordinary planner
// over the full frontier, consuming the identical stream, and performs
// I/O only for the nodes it owns; the spans of non-owned nodes are
// zero-filled and the router overlays them with the owning shard's
// bytes. The router threads the RNG state (captured with
// sample.RNG.State) from layer to layer across the scatter/gather
// boundary, so N shards and one node consume bit-identical streams and
// the reassembled batch digests match exactly.

// LayerParams parameterizes one SampleLayer call.
type LayerParams struct {
	// Layer is the zero-based layer index. The draw does not depend on
	// it; the router names the layer with it in its errors.
	Layer int
	// Fanout is the request's per-layer sample count. Must be positive.
	Fanout int
	// RNGState is the raw generator state to resume from: for layer 0,
	// sample.NewRNG(Mix(seed, chunk)).State(); for deeper layers, the
	// state the previous layer's shards reported back.
	RNGState uint64
}

// SampleLayer samples one layer of a chunk from the given frontier,
// resuming the chunk's draw stream at p.RNGState, and returns the layer
// plus the stream state after it. On a shard dataset, non-owned
// frontier nodes consume their draws but their Neighbors spans are
// zero-filled (see the package comment above). Works identically on an
// unsharded dataset, where every span is real — that is what lets a
// single Local engine stand in for a whole partition.
func (w *Worker) SampleLayer(frontier []uint32, p LayerParams) (*Layer, uint64, error) {
	if w.broken {
		return nil, 0, fmt.Errorf("core: worker %d: %w", w.id, ErrWorkerBroken)
	}
	if p.Fanout <= 0 {
		return nil, 0, fmt.Errorf("core: layer fanout %d must be positive", p.Fanout)
	}
	w.rng.Restore(p.RNGState)
	w.frontier = append(w.frontier[:0], frontier...)
	layer := new(Layer)
	if err := w.sampleLayer(layer, p.Fanout); err != nil {
		return nil, 0, err
	}
	return layer, w.rng.State(), nil
}

// ChunkSeedState returns the RNG state a chunk's draw stream starts
// from — the state SampleBatchOpts's reseed would produce for the same
// per-chunk seed. The router feeds it into the first layer's
// LayerParams.RNGState.
func ChunkSeedState(seed uint64) uint64 {
	r := sample.NewRNG(seed)
	return r.State()
}

// StrategyUniform names the one sampling strategy: Floyd's draw and a
// sort+dedup frontier.
const StrategyUniform = "uniform"

// CheckStrategy refuses, by name, every strategy name but "" and
// StrategyUniform. NextFrontierFor, shard.Router.SampleChunk and the
// serve request body take a strategy name from callers that may still
// ask for another one; each refuses it here rather than sample
// uniformly in its place.
func CheckStrategy(name string) error {
	if name != "" && name != StrategyUniform {
		return fmt.Errorf("unknown strategy %q (the one strategy is %q)", name, StrategyUniform)
	}
	return nil
}

// NextFrontierFor builds the next layer's frontier from a sampled layer,
// reusing dst's storage: the between-layer step of SampleBatchOpts, a
// pure function of the layer, so the router can run it without shard
// state. name must pass CheckStrategy.
func NextFrontierFor(name string, l *Layer, dst []uint32) ([]uint32, error) {
	if err := CheckStrategy(name); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var scratch []uint32
	return nextFrontier(l, dst, &scratch), nil
}

// nextFrontier builds the next layer's targets into dst[:0] (paper
// §2.1): l's sampled neighbors, sorted and deduplicated, so from layer
// 1 on the picks arrive in file order and no node is sampled twice.
// scratch is the sort's reusable workspace. A variable so a test can
// count the builds.
var nextFrontier = func(l *Layer, dst []uint32, scratch *[]uint32) []uint32 {
	dst = append(dst[:0], l.Neighbors...)
	return sample.SortDedupScratch(dst, scratch)
}

// FeatNodeUnion returns the batch's feature node set — layer-0 targets
// plus every layer's sampled neighbors (deeper layers' targets are
// subsets of earlier neighbors), sorted and deduplicated. It is the set
// the feature stage of SampleBatchOpts fetches, collected by the same
// loop, so a router-assembled batch requests the same vectors in the
// same order as a single node.
func FeatNodeUnion(b *Batch) []uint32 {
	var scratch []uint32
	return featNodeUnion(b, nil, &scratch)
}

// featNodeUnion collects b's feature node set into buf, sorting with
// scratch's help, and returns it (aliasing buf's backing array).
func featNodeUnion(b *Batch, buf []uint32, scratch *[]uint32) []uint32 {
	buf = buf[:0]
	for li := range b.Layers {
		if li == 0 {
			buf = append(buf, b.Layers[li].Targets...)
		}
		buf = append(buf, b.Layers[li].Neighbors...)
	}
	return sample.SortDedupScratch(buf, scratch)
}
