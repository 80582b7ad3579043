// Package graph holds the dataset-independent graph plumbing: edge
// types, the dataset manifest, and the out-of-core external merge sort
// that turns a generator's edge stream into the source-grouped order
// the on-disk layout requires.
package graph

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Edge is one directed edge. Node IDs are uint32 throughout the repo
// (scaled graphs stay below 2^32 nodes; the paper's offset index is
// what carries the 64-bit addressing).
type Edge struct {
	Src, Dst uint32
}

// Manifest describes an on-disk dataset. CreatedAt is left at the zero
// time by the deterministic build path so that regenerating a dataset
// with the same seed produces byte-identical files.
//
// The feature fields describe the optional fixed-stride node feature
// file (features.bin): FeatureDim f32 values per node, FeatBytes total,
// integrity-checked against FeatChecksum (CRC-32C, 8 hex digits) at
// open. All three are zero/empty for edge-only datasets.
//
// The label fields describe the optional per-node label file
// (labels.bin): one little-endian uint32 class id in [0, NumClasses)
// per node, integrity-checked against LabelChecksum (CRC-32C, 8 hex
// digits) and value-range-checked at open. Both are zero/empty for
// unlabeled datasets. Unlike the edge and feature files, labels.bin is
// always the FULL graph's labels — shards carry it whole (it is
// node-proportional, like the offset index every shard already holds),
// so a training consumer fronted by a router sees the same labels a
// single node would.
//
// The shard fields describe a node-range slice of a partitioned dataset
// (DESIGN.md §12). NumShards 0 means an ordinary unsharded dataset. In
// a shard manifest NumNodes and NumEdges stay GLOBAL — every shard
// knows the whole graph's shape and carries the full offset index —
// while BinBytes and FeatBytes describe the local files: edges.dat
// holds only the entries of nodes in [ShardLo, ShardHi) and
// features.bin only those nodes' vectors.
type Manifest struct {
	Version       int       `json:"version"`
	Name          string    `json:"name"`
	NumNodes      int64     `json:"numNodes"`
	NumEdges      int64     `json:"numEdges"`
	BinBytes      int64     `json:"binBytes"`
	FeatureDim    int       `json:"featureDim,omitempty"`
	FeatBytes     int64     `json:"featBytes,omitempty"`
	FeatChecksum  string    `json:"featChecksum,omitempty"`
	NumClasses    int       `json:"numClasses,omitempty"`
	LabelChecksum string    `json:"labelChecksum,omitempty"`
	NumShards     int       `json:"numShards,omitempty"`
	ShardIndex    int       `json:"shardIndex,omitempty"`
	ShardLo       int64     `json:"shardLo,omitempty"`
	ShardHi       int64     `json:"shardHi,omitempty"`
	CreatedAt     time.Time `json:"createdAt"`
}

// ManifestVersion is the current manifest schema version. Version 2
// records CRC-32C checksums; version 1 recorded FNV-1a 64 ones, which
// nothing verifies any more, so a version-1 manifest is refused.
const ManifestVersion = 2

// LoadManifest reads and decodes a manifest file.
func LoadManifest(path string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("graph: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("graph: decode manifest %s: %w", path, err)
	}
	if m.Version == 1 {
		return m, fmt.Errorf("graph: manifest %s is version 1, whose FNV-1a checksums are no longer verified; regenerate the dataset (go run ./cmd/benchprep -regen for the checked-in graph)", path)
	}
	if m.Version != ManifestVersion {
		return m, fmt.Errorf("graph: manifest %s has version %d, want %d", path, m.Version, ManifestVersion)
	}
	return m, nil
}

// Save writes the manifest as indented JSON.
func (m Manifest) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("graph: encode manifest: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("graph: write manifest: %w", err)
	}
	return nil
}
