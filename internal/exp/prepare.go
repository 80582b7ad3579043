// Package exp prepares the checked-in benchmark dataset at any scale
// divisor, draws uniform epoch targets, and runs the real-engine fault
// sweep.
package exp

import (
	"fmt"
	"hash/fnv"
	"path/filepath"

	"ringsampler/internal/gen"
	"ringsampler/internal/graph"
	"ringsampler/internal/storage"
)

// Options are the common knobs of a scaled experiment run.
type Options struct {
	// Targets is the epoch's target-node count.
	Targets int
	// BatchSize is the mini-batch size.
	BatchSize int
}

// paperDataset holds the full-scale |V| and |E| of a paper Table 1
// dataset; Prepare divides both by the scale divisor.
type paperDataset struct {
	Nodes, Edges int64
}

// Every prepared dataset carries node features and training labels at
// these shapes, so the feature-store and training benchmarks run on the
// same checked-in graph as the structural ones. Baked into verify():
// an older feature-less checkout fails verification and regenerates.
const (
	benchFeatureDim = 16
	benchNumClasses = 8
)

var paperDatasets = map[string]paperDataset{
	"ogbn-papers": {Nodes: 111_000_000, Edges: 1_600_000_000},
	"friendster":  {Nodes: 65_000_000, Edges: 3_600_000_000},
	"yahoo":       {Nodes: 1_400_000_000, Edges: 6_600_000_000},
	"synthetic":   {Nodes: 134_000_000, Edges: 8_200_000_000},
}

// Prepared is a verified on-disk scaled dataset.
type Prepared struct {
	Dir      string
	Manifest graph.Manifest
}

// Open opens the prepared dataset for sampling.
func (p *Prepared) Open() (*storage.Dataset, error) {
	return storage.Open(p.Dir)
}

// Prepare returns the scaled dataset `name-div<divisor>` under root,
// reusing checked-in files whenever they verify against their
// manifest (node/edge counts and exact file sizes). Only when the
// directory is missing, fails verification, or regen is forced does it
// rebuild — deterministically, so a rebuilt dataset is byte-identical
// to the checked-in one.
func Prepare(root, name string, divisor int, regen bool) (*Prepared, error) {
	spec, ok := paperDatasets[name]
	if !ok {
		return nil, fmt.Errorf("exp: unknown dataset %q", name)
	}
	if divisor <= 0 {
		return nil, fmt.Errorf("exp: divisor must be positive, got %d", divisor)
	}
	nodes := spec.Nodes / int64(divisor)
	edges := spec.Edges / int64(divisor)
	if nodes <= 0 || edges <= 0 {
		return nil, fmt.Errorf("exp: divisor %d collapses %s to %d nodes / %d edges", divisor, name, nodes, edges)
	}
	dir := filepath.Join(root, fmt.Sprintf("%s-div%d", name, divisor))
	if !regen {
		if man, err := verify(dir, name, nodes, edges); err == nil {
			return &Prepared{Dir: dir, Manifest: man}, nil
		}
	}
	opts := gen.Options{FeatureDim: benchFeatureDim, NumClasses: benchNumClasses}
	if _, err := gen.GenerateWith(dir, name, "rmat", nodes, edges, datasetSeed(name, divisor), opts); err != nil {
		return nil, fmt.Errorf("exp: generate %s: %w", dir, err)
	}
	man, err := verify(dir, name, nodes, edges)
	if err != nil {
		return nil, fmt.Errorf("exp: freshly generated dataset fails verification: %w", err)
	}
	return &Prepared{Dir: dir, Manifest: man}, nil
}

// verify opens the dataset (storage.Open validates file sizes and
// offset-index consistency) and checks it is the graph Prepare would
// build: right name, right scaled counts.
func verify(dir, name string, nodes, edges int64) (graph.Manifest, error) {
	ds, err := storage.Open(dir)
	if err != nil {
		return graph.Manifest{}, err
	}
	defer ds.Close()
	man := ds.Manifest()
	if man.Name != name {
		return man, fmt.Errorf("exp: dataset %s is %q, want %q", dir, man.Name, name)
	}
	if man.NumNodes != nodes || man.NumEdges != edges {
		return man, fmt.Errorf("exp: dataset %s has %d nodes / %d edges, want %d / %d",
			dir, man.NumNodes, man.NumEdges, nodes, edges)
	}
	if man.FeatureDim != benchFeatureDim || man.NumClasses != benchNumClasses {
		return man, fmt.Errorf("exp: dataset %s has featureDim %d / numClasses %d, want %d / %d",
			dir, man.FeatureDim, man.NumClasses, benchFeatureDim, benchNumClasses)
	}
	return man, nil
}

// datasetSeed derives the deterministic generation seed for a scaled
// dataset, so every checkout regenerates identical bytes.
func datasetSeed(name string, divisor int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s-div%d", name, divisor)
	return h.Sum64()
}
