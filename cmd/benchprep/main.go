// Command benchprep (re)builds the checked-in benchmark dataset under
// benchdata/bench and prints its node, edge and byte counts. Generation
// is deterministic, so running it on a clean checkout reproduces the
// committed files byte for byte.
//
// With -shards N the prepared dataset is additionally partitioned by
// node range into N shard datasets under <dataset>-shards/N/ — the
// on-disk layout the sharded serving mode (cmd/serve -router,
// DESIGN.md §12) deploys one shard server per directory over.
//
// Usage:
//
//	go run ./cmd/benchprep [-root benchdata/bench] [-divisor 20000] [-regen]
//	go run ./cmd/benchprep -shards 4
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"

	"ringsampler/internal/exp"
	"ringsampler/internal/gen"
	"ringsampler/internal/storage"
)

func main() {
	root := flag.String("root", "benchdata/bench", "dataset root directory")
	divisor := flag.Int("divisor", 20_000, "paper-scale divisor")
	regen := flag.Bool("regen", false, "force regeneration even if files verify")
	shards := flag.Int("shards", 0, "also partition the prepared dataset into this many node-range shard datasets (0: skip)")
	flag.Parse()
	if *shards < 0 || *shards == 1 {
		log.Fatalf("-shards %d: need 0 (skip) or ≥ 2", *shards)
	}

	p, err := exp.Prepare(*root, "ogbn-papers", *divisor, *regen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d nodes, %d edges, %d bytes\n",
		p.Dir, p.Manifest.NumNodes, p.Manifest.NumEdges, p.Manifest.BinBytes)

	if *shards >= 2 {
		dst := filepath.Join(p.Dir+"-shards", fmt.Sprint(*shards))
		dirs, err := gen.Partition(p.Dir, dst, *shards)
		if err != nil {
			log.Fatal(err)
		}
		for i, sdir := range dirs {
			sds, err := storage.Open(sdir)
			if err != nil {
				log.Fatal(err)
			}
			lo, hi := sds.ShardRange()
			fmt.Printf("shard %d/%d %s: nodes [%d,%d), %d edge entries\n",
				i, len(dirs), sdir, lo, hi, sds.Manifest().BinBytes/storage.EntryBytes)
			sds.Close()
		}
	}
}
