// Package shard implements partitioned serving (DESIGN.md §12): the
// ShardEngine seam that makes a node-range shard of the graph —
// storage, caches, and ring workers bundled — interchangeable between
// in-process (Local) and over-HTTP (Remote) placement, and the
// stateless Router that scatters each sampling layer to owning shards,
// gathers the per-layer frontiers, and reassembles batches that are
// byte-identical to a single-node run.
//
// The determinism argument, in one paragraph: a chunk's draws are one
// rolling RNG stream, and how many values each frontier node consumes
// depends only on its degree — which every shard knows from the global
// offset index — never on its edge bytes. So every shard participating
// in a layer replays the whole frontier's draws (consuming the
// identical stream) and reads bytes only for the nodes it owns; the
// router overlays each node's span from its owning shard, rebuilds the
// next frontier with the strategy's pure frontier rule, and threads
// the RNG state into the next layer. Per-chunk seeding (Mix(seed,
// chunk)) is untouched, so the reassembled response digest equals the
// single-node digest bit for bit.
package shard

import (
	"context"
	"fmt"
	"strconv"

	"ringsampler/internal/core"
	"ringsampler/internal/storage"
)

// Info identifies a shard: its position in the partition, its owned
// node range, and the global graph shape it serves a slice of.
type Info struct {
	// Index/Total place the shard in the partition; an unsharded
	// dataset serves as the sole shard of a 1-partition (0 of 1).
	Index int `json:"index"`
	Total int `json:"total"`
	// Lo/Hi is the owned node range [lo, hi).
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// NumNodes/NumEdges are the GLOBAL graph counts.
	NumNodes int64 `json:"num_nodes"`
	NumEdges int64 `json:"num_edges"`
	// FeatureDim is the per-node f32 feature width (0: no features).
	FeatureDim int `json:"feature_dim,omitempty"`
}

// InfoOf returns the identity ds serves under: its position in the
// partition and its owned node range. An unsharded dataset serves as
// the sole shard of a 1-partition — what makes a single engine over it
// a valid "cluster".
func InfoOf(ds *storage.Dataset) Info {
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
// Local (in-process) and Remote (HTTP) implementations are
// interchangeable — the router cannot tell them apart, which is the
// point of the interface.
//
// Implementations must be safe for concurrent use: the router fans one
// request's layers out while serving other requests.
type Engine interface {
	// Info returns the shard's identity. Constant over the engine's
	// lifetime (Remote resolves it once at construction).
	Info() Info
	// SampleLayer replays the frontier's draws from p.RNGState and
	// returns the layer — non-owned spans zero-filled — plus the RNG
	// state after the layer (see core.Worker.SampleLayer).
	SampleLayer(ctx context.Context, frontier []uint32, p core.LayerParams) (*core.Layer, uint64, error)
	// Features returns the owned nodes' raw f32 vectors back to back in
	// input order. Callers must send only owned nodes.
	Features(ctx context.Context, nodes []uint32) ([]byte, error)
	// Stats reports the engine's accumulated ring-level I/O counters.
	// Remote engines report zeros — the counters live in the shard
	// server's own /metrics.
	Stats() core.IOStats
	// Close releases the engine's workers/connections.
	Close() error
}

// Wire types for the shard HTTP protocol (served by internal/serve,
// spoken by Remote). RNG states cross the wire as %016x hex strings:
// they are full-range uint64s, and JSON numbers would corrupt anything
// above 2^53.

// LayerRequest is the body of POST /v1/shard/layer.
type LayerRequest struct {
	Frontier []uint32 `json:"frontier"`
	Layer    int      `json:"layer"`
	Fanout   int      `json:"fanout"`
	Strategy string   `json:"strategy,omitempty"`
	RNGState string   `json:"rng_state"`
}

// LayerResponse is its reply: the layer's CSR pieces plus the stream
// state after the layer.
type LayerResponse struct {
	Targets   []uint32 `json:"targets"`
	Starts    []int64  `json:"starts"`
	Neighbors []uint32 `json:"neighbors"`
	RNGState  string   `json:"rng_state"`
}

// FeaturesRequest is the body of POST /v1/shard/features.
type FeaturesRequest struct {
	Nodes []uint32 `json:"nodes"`
}

// FeaturesResponse carries the raw little-endian f32 records
// (base64-coded by encoding/json).
type FeaturesResponse struct {
	Features []byte `json:"features"`
}

// EncodeState renders an RNG state for the wire.
func EncodeState(s uint64) string { return fmt.Sprintf("%016x", s) }

// ParseState parses a wire RNG state.
func ParseState(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("shard: bad rng_state %q: %w", s, err)
	}
	return v, nil
}
