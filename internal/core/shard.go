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
	// Layer is the zero-based layer index (strategies may vary their
	// fanout by depth, e.g. walk's LayerFanout ≡ 1).
	Layer int
	// Fanout is the request's per-layer sample count. Must be positive.
	Fanout int
	// Strategy names the draw strategy; empty falls through to the
	// engine default.
	Strategy string
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
	if !w.s.cfg.OffsetSampling {
		return nil, 0, fmt.Errorf("core: SampleLayer requires OffsetSampling")
	}
	strat, err := w.s.strategyFor(p.Strategy)
	if err != nil {
		return nil, 0, err
	}
	w.rng.Restore(p.RNGState)
	fan := strat.LayerFanout(p.Layer, p.Fanout)
	w.frontier = append(w.frontier[:0], frontier...)
	layer := new(Layer)
	if err := w.sampleLayerOffset(layer, fan, strat); err != nil {
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

// NextFrontierFor builds the next layer's frontier from a sampled layer
// for the named strategy, reusing dst's storage. It mirrors the
// between-layer step of sampleBatch; every strategy's frontier rule is
// a pure function of the layer (sort+dedup or verbatim), so the router
// can run it without shard state.
func NextFrontierFor(name string, l *Layer, dst []uint32) ([]uint32, error) {
	var scratch []uint32
	switch name {
	case "", StrategyUniform:
		return uniformStrategy{}.NextFrontier(l, dst, &scratch), nil
	case StrategyWeighted:
		return weightedStrategy{}.NextFrontier(l, dst, &scratch), nil
	case StrategyWalk:
		return walkStrategy{}.NextFrontier(l, dst, &scratch), nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", name)
	}
}

// FeatNodeUnion returns the batch's feature node set — layer-0 targets
// plus every layer's sampled neighbors, sorted and deduplicated —
// exactly the set fetchBatchFeatures computes, so a router-assembled
// batch requests the same vectors in the same order as a single node.
func FeatNodeUnion(b *Batch) []uint32 {
	var nodes []uint32
	for li := range b.Layers {
		if li == 0 {
			nodes = append(nodes, b.Layers[li].Targets...)
		}
		nodes = append(nodes, b.Layers[li].Neighbors...)
	}
	return sample.SortDedup(nodes)
}
