package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// scale fixes every amount of work in the benchmark: the graph, and how
// many targets or requests one window of each workload holds. The
// window sizes are calibrated so that a window lasts ≥ 1.5 s (about
// 2.2 s) on the 2-core reference box; see README.md "Calibration".
// full is what BENCHMARK.json measures; tiny exists for the smoke test.
type scale struct {
	name         string
	nodes, edges int64
	// probeNodes/probeEdges is the graph the gen probe generates afresh
	// in every traced run.
	probeNodes, probeEdges int64

	hotTargets    int // epoch_hot: targets per window
	directTargets int // epoch_direct: targets per window
	trainTargets  int // train_feat: targets per window (one epoch)
	serveRequests int // serve_*: requests per client per window
	shardRequests int // serve_shard2: requests per client per window
	probeChunks   int // shard probe: chunks sampled both ways
	checkRequests int // serve_shard2: requests per client replayed on a single node
}

const (
	featureDim = 32
	numClasses = 8
	genSeed    = 20250925 // fixed: the graph never depends on -seed
	numShards  = 2
)

var fullScale = scale{
	name: "rmat-1m", nodes: 1_000_000, edges: 20_000_000,
	probeNodes: 100_000, probeEdges: 2_000_000,
	hotTargets: 43008, directTargets: 9216, trainTargets: 258048,
	serveRequests: 700, shardRequests: 880, probeChunks: 200, checkRequests: 128,
}

var tinyScale = scale{
	name: "rmat-20k", nodes: 20_000, edges: 400_000,
	probeNodes: 2_000, probeEdges: 20_000,
	hotTargets: 1024, directTargets: 512, trainTargets: 2048,
	serveRequests: 12, shardRequests: 12, probeChunks: 8, checkRequests: 8,
}

// dataset is the generated graph on disk plus its 2-way partition.
type dataset struct {
	Dir       string   `json:"-"`
	ShardDirs []string `json:"-"`
	// Shards are the partition's directory names under <name>-shards.
	Shards []string `json:"shards"`

	Name       string `json:"name"`
	Nodes      int64  `json:"nodes"`
	Edges      int64  `json:"edges"`
	FeatureDim int    `json:"featureDim"`
	Classes    int    `json:"classes"`
	GenSeed    uint64 `json:"genSeed"`
	EdgeBytes  int64  `json:"edgeBytes"`
	FeatBytes  int64  `json:"featBytes"`
	// Checksums of every file the program reads; ID folds them into the
	// one identity printed in each report's environment block.
	Files map[string]string `json:"files"`
	ID    string            `json:"id"`
}

var datasetFiles = []string{"edges.dat", "offsets.idx", "features.bin", "labels.bin"}

const benchManifest = "bench.json"

// checksums reads every dataset file once — which also leaves it in the
// page cache, the pre-read the buffered workloads rely on.
func checksums(dir string) (map[string]string, string, error) {
	sums := make(map[string]string, len(datasetFiles))
	h := fnv.New64a()
	for _, name := range datasetFiles {
		s, err := checksumFile(filepath.Join(dir, name))
		if err != nil {
			return nil, "", err
		}
		sums[name] = s
		fmt.Fprintf(h, "%s=%s;", name, s)
	}
	return sums, fmt.Sprintf("%016x", h.Sum64()), nil
}

// ensureDataset returns the benchmark graph under root, generating it
// (and its partition) when it is missing or when any file's checksum no
// longer matches the manifest written after generation.
func ensureDataset(root string, sc scale, logf func(string, ...any)) (*dataset, error) {
	dir := filepath.Join(root, sc.name)
	shardRoot := filepath.Join(root, sc.name+"-shards")
	if d, err := loadDataset(dir, shardRoot, sc); err == nil {
		return d, nil
	} else {
		logf("dataset %s: %v — generating", sc.name, err)
	}
	for _, p := range []string{dir, shardRoot} {
		if err := os.RemoveAll(p); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := genDataset(dir, sc.name, sc.nodes, sc.edges, genSeed, featureDim, numClasses); err != nil {
		return nil, fmt.Errorf("generate %s: %w", sc.name, err)
	}
	shardDirs, err := genPartition(dir, shardRoot, numShards)
	if err != nil {
		return nil, fmt.Errorf("partition %s: %w", sc.name, err)
	}
	sums, id, err := checksums(dir)
	if err != nil {
		return nil, err
	}
	d := &dataset{
		Name: sc.name, Nodes: sc.nodes, Edges: sc.edges, FeatureDim: featureDim, Classes: numClasses,
		GenSeed: genSeed, Files: sums, ID: id,
	}
	for _, sd := range shardDirs {
		d.Shards = append(d.Shards, filepath.Base(sd))
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	// Written last: a generation that was interrupted leaves no manifest
	// and is redone.
	if err := os.WriteFile(filepath.Join(dir, benchManifest), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	// Flush the new files now, so that their write-back does not run
	// under the first timed windows.
	syscall.Sync()
	logf("dataset %s generated in %.1fs", sc.name, time.Since(t0).Seconds())
	return loadDataset(dir, shardRoot, sc)
}

func loadDataset(dir, shardRoot string, sc scale) (*dataset, error) {
	data, err := os.ReadFile(filepath.Join(dir, benchManifest))
	if err != nil {
		return nil, err
	}
	var d dataset
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("decode %s: %w", benchManifest, err)
	}
	if d.Name != sc.name || d.Nodes != sc.nodes || d.Edges != sc.edges || d.FeatureDim != featureDim || d.Classes != numClasses || d.GenSeed != genSeed {
		return nil, fmt.Errorf("manifest describes another graph")
	}
	sums, id, err := checksums(dir)
	if err != nil {
		return nil, err
	}
	for name, want := range d.Files {
		if sums[name] != want {
			return nil, fmt.Errorf("%s checksum %s != manifest %s", name, sums[name], want)
		}
	}
	if id != d.ID {
		return nil, fmt.Errorf("dataset id %s != manifest %s", id, d.ID)
	}
	d.Dir = dir
	if len(d.Shards) != numShards {
		return nil, fmt.Errorf("manifest lists %d shards, want %d", len(d.Shards), numShards)
	}
	for _, name := range d.Shards {
		sd := filepath.Join(shardRoot, name)
		if _, err := os.Stat(filepath.Join(sd, "manifest.json")); err != nil {
			return nil, err
		}
		d.ShardDirs = append(d.ShardDirs, sd)
	}
	for _, name := range []string{"edges.dat", "features.bin"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if name == "edges.dat" {
			d.EdgeBytes = fi.Size()
		} else {
			d.FeatBytes = fi.Size()
		}
	}
	return &d, nil
}

// prereadShards pulls the shard files into the page cache (the unsharded
// files were read by checksums).
func (d *dataset) prereadShards() error {
	for _, sd := range d.ShardDirs {
		for _, name := range []string{"edges.dat", "features.bin"} {
			if _, err := checksumFile(filepath.Join(sd, name)); err != nil {
				return err
			}
		}
	}
	return nil
}
