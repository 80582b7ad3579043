package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// benchRoot is the checked-in benchmark dataset root, relative to this
// package directory.
const benchRoot = "../../benchdata/bench"

// TestPrepareReusesCheckedInDataset: the committed
// ogbn-papers-div20000 files must verify as-is — prepare opens them
// without regenerating (the benchmarks depend on this to avoid a
// generation step on every run).
func TestPrepareReusesCheckedInDataset(t *testing.T) {
	edgePath := filepath.Join(benchRoot, benchDir, "edges.dat")
	before, err := os.Stat(edgePath)
	if err != nil {
		t.Fatalf("checked-in benchdata missing: %v", err)
	}
	dir, man, err := prepare(benchRoot, false)
	if err != nil {
		t.Fatal(err)
	}
	if man.NumNodes != 5550 || man.NumEdges != 80_000 {
		t.Fatalf("unexpected scaled counts: %+v", man)
	}
	after, err := os.Stat(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("prepare rewrote checked-in benchdata instead of reusing it")
	}

	// The prepared dataset must actually sample through the real engine.
	ds, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	s, err := core.New(ds, core.DefaultConfig(), uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r := sample.NewRNG(1)
	targets := make([]uint32, 32)
	for i := range targets {
		targets[i] = r.Uint32n(uint32(ds.NumNodes()))
	}
	b, err := w.SampleBatchOpts(targets, core.BatchOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalSampled() == 0 {
		t.Fatal("checked-in dataset sampled nothing")
	}
}

// TestPrepareRegenMatchesCheckedIn: regenerating the benchmark dataset
// from scratch reproduces every checked-in file byte for byte, which is
// what lets benchprep -regen rebuild benchdata on any checkout.
func TestPrepareRegenMatchesCheckedIn(t *testing.T) {
	dir, _, err := prepare(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(benchRoot, benchDir)
	files, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		a, err := os.ReadFile(filepath.Join(want, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatalf("regenerated dataset lacks %s: %v", f.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("regenerated %s differs from the checked-in file", f.Name())
		}
	}
}

// TestPrepareRegeneratesForeignDataset: a dataset under the benchmark
// directory name that is some other graph fails verify, so prepare
// rebuilds it in place into the benchmark graph.
func TestPrepareRegeneratesForeignDataset(t *testing.T) {
	root := t.TempDir()
	if _, err := gen.Generate(filepath.Join(root, benchDir), "tiny", "rmat", 2_000, 30_000, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := verify(filepath.Join(root, benchDir)); err == nil {
		t.Fatal("verify accepted a foreign graph")
	}
	dir, man, err := prepare(root, false)
	if err != nil {
		t.Fatal(err)
	}
	if dir != filepath.Join(root, benchDir) || man.Name != benchName || man.NumNodes != benchNodes || man.NumEdges != benchEdges {
		t.Fatalf("prepare left %s as %q with %d nodes / %d edges", dir, man.Name, man.NumNodes, man.NumEdges)
	}
}

// TestRunRefusesRetiredFlags: -shards is refused by name before any
// dataset is verified or generated, so a script that still passes it
// learns the partition step is gone.
func TestRunRefusesRetiredFlags(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-root", t.TempDir(), "-shards", "2"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("-shards 2: err = %v, want a refusal naming -shards", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("-shards 2: work started before the flag was refused:\n%s", sb.String())
	}
}

// TestHelpExitsZero: -h prints the usage and the command exits 0, as a
// help request succeeds; it is not an error ending in "flag: help
// requested". The test runs main in a child process of the test binary.
func TestHelpExitsZero(t *testing.T) {
	if os.Getenv("RINGSAMPLER_TEST_MAIN") == "1" {
		os.Args = []string{"benchprep", "-h"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelpExitsZero$")
	cmd.Env = append(os.Environ(), "RINGSAMPLER_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "Usage of benchprep:") || strings.Contains(string(out), "help requested") {
		t.Fatalf("benchprep -h: %v\n%s", err, out)
	}
}
