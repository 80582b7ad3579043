// Command benchprep verifies or rebuilds the checked-in benchmark
// dataset, benchdata/bench/ogbn-papers-div20000 — ogbn-papers (paper
// Table 1: 111 M nodes, 1.6 B edges) scaled down 20 000× to 5 550 nodes
// and 80 000 edges, with node features and training labels — and prints
// its node, edge and byte counts. Files that verify are reused as they
// are; generation is deterministic, so -regen on a clean checkout
// reproduces the committed files byte for byte.
//
// Usage:
//
//	go run ./cmd/benchprep [-root benchdata/bench] [-regen]
package main

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"os"
	"path/filepath"

	"ringsampler/internal/gen"
	"ringsampler/internal/storage"
)

// The checked-in dataset's shape. Features and labels let the
// feature-store and training benchmarks run on the same graph as the
// structural ones; verify checks all of it, so a checkout that differs
// in any of it regenerates.
const (
	benchName       = "ogbn-papers"
	benchDir        = "ogbn-papers-div20000"
	benchNodes      = 111_000_000 / 20_000
	benchEdges      = 1_600_000_000 / 20_000
	benchFeatureDim = 16
	benchNumClasses = 8
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run verifies or rebuilds the dataset the flags in args name and
// prints its counts to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchprep", flag.ContinueOnError)
	root := fs.String("root", "benchdata/bench", "dataset root directory")
	regen := fs.Bool("regen", false, "force regeneration even if files verify")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, man, err := prepare(*root, *regen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dataset %s: %d nodes, %d edges, %d bytes\n", dir, man.NumNodes, man.NumEdges, man.BinBytes)
	return nil
}

// prepare returns the benchmark dataset's directory under root and its
// manifest, reusing the files there when they verify and generating
// them otherwise, or always when regen is set. The generation seed is
// derived from the directory name, so every checkout builds the same
// bytes.
func prepare(root string, regen bool) (string, storage.Manifest, error) {
	dir := filepath.Join(root, benchDir)
	if !regen {
		if man, err := verify(dir); err == nil {
			return dir, man, nil
		}
	}
	h := fnv.New64a()
	h.Write([]byte(benchDir))
	opts := gen.Options{FeatureDim: benchFeatureDim, NumClasses: benchNumClasses}
	if _, err := gen.GenerateWith(dir, benchName, "rmat", benchNodes, benchEdges, h.Sum64(), opts); err != nil {
		return "", storage.Manifest{}, fmt.Errorf("generate %s: %w", dir, err)
	}
	man, err := verify(dir)
	if err != nil {
		return "", storage.Manifest{}, fmt.Errorf("freshly generated dataset fails verification: %w", err)
	}
	return dir, man, nil
}

// verify opens the dataset (storage.Open validates file sizes, checksums
// and offset-index consistency) and checks it is the graph prepare
// builds: its name, counts and feature and label shapes.
func verify(dir string) (storage.Manifest, error) {
	ds, err := storage.Open(dir)
	if err != nil {
		return storage.Manifest{}, err
	}
	defer ds.Close()
	man := ds.Manifest()
	if man.Name != benchName || man.NumNodes != benchNodes || man.NumEdges != benchEdges ||
		man.FeatureDim != benchFeatureDim || man.NumClasses != benchNumClasses {
		return man, fmt.Errorf("dataset %s is %q with %d nodes / %d edges, featureDim %d / numClasses %d; want %q with %d / %d, %d / %d",
			dir, man.Name, man.NumNodes, man.NumEdges, man.FeatureDim, man.NumClasses,
			benchName, benchNodes, benchEdges, benchFeatureDim, benchNumClasses)
	}
	return man, nil
}
