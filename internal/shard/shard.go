// Package shard implements in-process partitioned sampling (DESIGN.md
// §12): the Engine seam over one node-range shard of the graph —
// storage, caches and a pool of ring workers bundled (Local) — and the
// stateless Router that scatters each sampling layer to the shards,
// gathers the per-layer frontiers, and reassembles batches that are
// byte-identical to a single-node run. It is kept only for the
// benchmark harness's serve_shard2 workload; there is no network
// placement.
//
// The determinism argument, in one paragraph: a chunk's draws are one
// rolling RNG stream, and how many values each frontier node consumes
// depends only on its degree — which every shard knows from the global
// offset index — never on its edge bytes. So every shard participating
// in a layer replays the whole frontier's draws (consuming the
// identical stream) and reads bytes only for the nodes it owns; the
// router overlays each node's span from its owning shard, rebuilds the
// next frontier with the pure sort+dedup frontier rule, and threads
// the RNG state into the next layer. Per-chunk seeding (Mix(seed,
// chunk)) is untouched, so the reassembled response digest equals the
// single-node digest bit for bit.
package shard

import (
	"context"

	"ringsampler/internal/core"
	"ringsampler/internal/storage"
)

// Info identifies a shard: its position in the partition, its owned
// node range, and the global graph shape it serves a slice of.
type Info struct {
	// Index/Total place the shard in the partition; an unsharded
	// dataset serves as the sole shard of a 1-partition (0 of 1).
	Index int
	Total int
	// Lo/Hi is the owned node range [lo, hi).
	Lo int64
	Hi int64
	// NumNodes/NumEdges are the GLOBAL graph counts.
	NumNodes int64
	NumEdges int64
	// FeatureDim is the per-node f32 feature width (0: no features).
	FeatureDim int
}

// infoOf returns the identity ds serves under: its position in the
// partition and its owned node range. An unsharded dataset serves as
// the sole shard of a 1-partition — what makes a single engine over it
// a valid "cluster".
func infoOf(ds *storage.Dataset) Info {
	lo, hi := ds.ShardRange()
	total := ds.NumShards()
	if total == 0 {
		total = 1
	}
	return Info{
		Index: ds.ShardIndex(), Total: total, Lo: lo, Hi: hi,
		NumNodes: ds.NumNodes(), NumEdges: ds.NumEdges(),
		FeatureDim: ds.FeatureDim(),
	}
}

// Engine is the shard seam: one node-range shard's storage + cache +
// worker bundle, answering per-layer sampling and feature fetches.
// Local implements it; tests and the benchmark harness wrap it to
// inject faults or time calls.
//
// Implementations must be safe for concurrent use: the router fans one
// request's layers out while serving other requests.
type Engine interface {
	// Info returns the shard's identity, constant over the engine's
	// lifetime.
	Info() Info
	// SampleLayer replays the frontier's draws from p.RNGState and
	// returns the layer — non-owned spans zero-filled — plus the RNG
	// state after the layer (see core.Worker.SampleLayer).
	SampleLayer(ctx context.Context, frontier []uint32, p core.LayerParams) (*core.Layer, uint64, error)
	// Features returns the owned nodes' raw f32 vectors back to back in
	// input order. Callers must send only owned nodes.
	Features(ctx context.Context, nodes []uint32) ([]byte, error)
	// Stats reports the engine's accumulated ring-level I/O counters.
	Stats() core.IOStats
	// Close releases the engine's workers.
	Close() error
}
