package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"ringsampler/internal/core"
	"ringsampler/internal/storage"
)

// Router is the stateless scatter/gather front of a partition: it holds
// no graph bytes and no RNG, only the shard map. Per chunk it seeds the
// draw stream exactly like a single node (Mix(seed, chunk) is applied
// by the caller, as in serve), scatters each layer's full frontier to
// the shards owning at least one frontier node, cross-checks the
// replicas' replayed layout, overlays owned spans, rebuilds the next
// frontier, and threads the RNG state forward.
type Router struct {
	engines []Engine // sorted by owned range
	infos   []Info
	// his[i] = infos[i].Hi, for binary-searching a node's owner.
	his        []int64
	numNodes   int64
	featureDim int
}

// NewRouter validates that the engines form exactly one partition of
// the graph — contiguous owned ranges tiling [0, NumNodes), consistent
// global counts and feature width, each shard in its declared position
// — and returns a router over them. The router does not take ownership
// of the engines until Close is called.
func NewRouter(engines []Engine) (*Router, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one engine")
	}
	r := &Router{engines: append([]Engine(nil), engines...)}
	sort.SliceStable(r.engines, func(i, j int) bool {
		return r.engines[i].Info().Lo < r.engines[j].Info().Lo
	})
	first := r.engines[0].Info()
	numEdges := first.NumEdges
	r.numNodes, r.featureDim = first.NumNodes, first.FeatureDim
	next := int64(0)
	for i, e := range r.engines {
		info := e.Info()
		if info.NumNodes != r.numNodes || info.NumEdges != numEdges {
			return nil, fmt.Errorf("shard: engine %d global counts %d/%d disagree with %d/%d — shards of different graphs?",
				i, info.NumNodes, info.NumEdges, r.numNodes, numEdges)
		}
		if info.FeatureDim != r.featureDim {
			return nil, fmt.Errorf("shard: engine %d feature dim %d disagrees with %d", i, info.FeatureDim, r.featureDim)
		}
		if info.Total != len(r.engines) || info.Index != i {
			return nil, fmt.Errorf("shard: engine at position %d declares shard %d/%d, router has %d engines",
				i, info.Index, info.Total, len(r.engines))
		}
		if info.Lo != next || info.Hi < info.Lo {
			return nil, fmt.Errorf("shard: engine %d owns [%d,%d), want start %d (gap or overlap)", i, info.Lo, info.Hi, next)
		}
		next = info.Hi
		r.infos = append(r.infos, info)
		r.his = append(r.his, info.Hi)
	}
	if next != r.numNodes {
		return nil, fmt.Errorf("shard: partition covers [0,%d), graph has %d nodes", next, r.numNodes)
	}
	return r, nil
}

// NumNodes returns the global node count.
func (r *Router) NumNodes() int64 { return r.numNodes }

// HasFeatures reports whether the partition serves features.
func (r *Router) HasFeatures() bool { return r.featureDim > 0 }

// Shards returns the number of engines.
func (r *Router) Shards() int { return len(r.engines) }

// Stats sums the engines' I/O counters.
func (r *Router) Stats() core.IOStats {
	var st core.IOStats
	for _, e := range r.engines {
		st.Add(e.Stats())
	}
	return st
}

// Close closes every engine.
func (r *Router) Close() error {
	var err error
	for _, e := range r.engines {
		if cerr := e.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// owner returns the index of the engine owning node v.
func (r *Router) owner(v uint32) int {
	return sort.Search(len(r.his), func(i int) bool { return r.his[i] > int64(v) })
}

// SampleChunk samples one chunk — the router-side equivalent of a
// worker's SampleBatchOpts with per-chunk seed already mixed in by the
// caller. The returned batch is byte-identical (Digest-equal) to the
// single-node batch for the same (targets, fanouts, seed, features).
// strategy must pass core.CheckStrategy.
func (r *Router) SampleChunk(ctx context.Context, targets []uint32, fanouts []int, seed uint64, strategy string, features bool) (*core.Batch, error) {
	if len(fanouts) == 0 {
		return nil, fmt.Errorf("shard: sample chunk needs at least one fanout layer")
	}
	if err := core.CheckStrategy(strategy); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	for _, v := range targets {
		if int64(v) >= r.numNodes {
			return nil, fmt.Errorf("shard: target %d outside [0,%d)", v, r.numNodes)
		}
	}
	state := core.ChunkSeedState(seed)
	batch := &core.Batch{Layers: make([]core.Layer, len(fanouts))}
	frontier := append([]uint32(nil), targets...)
	for li, fanout := range fanouts {
		layer, nextState, err := r.sampleLayer(ctx, frontier, core.LayerParams{
			Layer: li, Fanout: fanout, RNGState: state,
		})
		if err != nil {
			return nil, err
		}
		batch.Layers[li] = *layer
		if li == len(fanouts)-1 {
			break // no next layer; the feature stage builds its own union
		}
		state = nextState
		frontier, err = core.NextFrontierFor("", layer, frontier)
		if err != nil {
			return nil, err
		}
	}
	if features {
		if r.featureDim == 0 {
			return nil, fmt.Errorf("shard: partition has no feature files")
		}
		nodes := core.FeatNodeUnion(batch)
		feats, err := r.fetchFeatures(ctx, nodes)
		if err != nil {
			return nil, err
		}
		batch.FeatNodes = nodes
		batch.Features = feats
		batch.FeatureDim = r.featureDim
	}
	return batch, nil
}

// callEngine runs fn once, retrying a single time on a non-context
// error: a faulty shard ring that broke a worker (the engine retires it
// and leases a fresh one) heals without failing the request.
func callEngine(ctx context.Context, fn func() error) error {
	err := fn()
	if err == nil || ctx.Err() != nil {
		return err
	}
	return fn()
}

// sampleLayer scatters one layer's frontier to the shards owning at
// least one frontier node, verifies the replicas replayed the same
// stream, and overlays each node's span from its owner.
func (r *Router) sampleLayer(ctx context.Context, frontier []uint32, p core.LayerParams) (*core.Layer, uint64, error) {
	if len(frontier) == 0 {
		// An all-zero-degree frontier consumes no draws and samples
		// nothing; matches the worker's empty-layer layout.
		return &core.Layer{Starts: []int64{0}, Neighbors: []uint32{}}, p.RNGState, nil
	}
	owners := make([]int, len(frontier))
	involved := make([]bool, len(r.engines))
	for i, v := range frontier {
		owners[i] = r.owner(v)
		involved[owners[i]] = true
	}
	type result struct {
		layer *core.Layer
		state uint64
	}
	results := make([]*result, len(r.engines))
	errs := make([]error, len(r.engines))
	var wg sync.WaitGroup
	for ei := range r.engines {
		if !involved[ei] {
			continue
		}
		wg.Add(1)
		go func(ei int) {
			defer wg.Done()
			errs[ei] = callEngine(ctx, func() error {
				layer, state, err := r.engines[ei].SampleLayer(ctx, frontier, p)
				if err != nil {
					return err
				}
				results[ei] = &result{layer: layer, state: state}
				return nil
			})
		}(ei)
	}
	wg.Wait()
	var base *result
	for ei, res := range results {
		if errs[ei] != nil {
			return nil, 0, fmt.Errorf("shard %d layer %d: %w", ei, p.Layer, errs[ei])
		}
		if res == nil {
			continue
		}
		if base == nil {
			base = res
			continue
		}
		// Replay cross-check: every shard consumed the same stream over
		// the same frontier, so layouts and end states must agree bit for
		// bit. A mismatch means a corrupt shard (wrong offset index), not
		// a recoverable fault.
		if res.state != base.state || len(res.layer.Starts) != len(base.layer.Starts) {
			return nil, 0, fmt.Errorf("shard %d layer %d replay diverged (state %016x vs %016x)", ei, p.Layer, res.state, base.state)
		}
		for i := range base.layer.Starts {
			if res.layer.Starts[i] != base.layer.Starts[i] {
				return nil, 0, fmt.Errorf("shard %d layer %d replay diverged at starts[%d]", ei, p.Layer, i)
			}
		}
	}
	// Overlay: node i's span comes from its owning shard's replica.
	merged := base.layer
	out := &core.Layer{
		Targets:   merged.Targets,
		Starts:    merged.Starts,
		Neighbors: make([]uint32, len(merged.Neighbors)),
	}
	for i := range frontier {
		res := results[owners[i]]
		copy(out.Neighbors[out.Starts[i]:out.Starts[i+1]], res.layer.Neighbors[out.Starts[i]:out.Starts[i+1]])
	}
	return out, base.state, nil
}

// fetchFeatures scatters a sorted, deduplicated node set to owners and
// concatenates the returned records. Shards own contiguous node ranges
// and the set is ascending, so each shard's nodes form one contiguous
// segment and concatenation in shard order restores input order.
func (r *Router) fetchFeatures(ctx context.Context, nodes []uint32) ([]byte, error) {
	stride := int64(r.featureDim) * storage.FeatureElemBytes
	type seg struct {
		ei   int
		a, b int // nodes[a:b]
	}
	var segs []seg
	for a := 0; a < len(nodes); {
		ei := r.owner(nodes[a])
		b := a + 1
		for b < len(nodes) && int64(nodes[b]) < r.infos[ei].Hi {
			b++
		}
		segs = append(segs, seg{ei: ei, a: a, b: b})
		a = b
	}
	out := make([]byte, int64(len(nodes))*stride)
	errs := make([]error, len(segs))
	var wg sync.WaitGroup
	for si, sg := range segs {
		wg.Add(1)
		go func(si int, sg seg) {
			defer wg.Done()
			errs[si] = callEngine(ctx, func() error {
				feats, err := r.engines[sg.ei].Features(ctx, nodes[sg.a:sg.b])
				if err != nil {
					return err
				}
				if int64(len(feats)) != int64(sg.b-sg.a)*stride {
					return fmt.Errorf("shard %d returned %d feature bytes, want %d", sg.ei, len(feats), int64(sg.b-sg.a)*stride)
				}
				copy(out[int64(sg.a)*stride:], feats)
				return nil
			})
		}(si, sg)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d features: %w", segs[si].ei, err)
		}
	}
	return out, nil
}
