package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/train"
	"ringsampler/internal/uring"
)

// rmatGraphDir generates an R-MAT graph of the given shape
// (featureDim and classes 0: no feature or label file).
func rmatGraphDir(t *testing.T, nodes, edges int64, seed uint64, featureDim, classes int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "g")
	if _, err := gen.GenerateWith(dir, "cli-test", "rmat", nodes, edges, seed,
		gen.Options{FeatureDim: featureDim, NumClasses: classes}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// testGraphDir generates a small R-MAT graph once per test.
func testGraphDir(t *testing.T) string { return rmatGraphDir(t, 2000, 30000, 11, 0, 0) }

// TestRunRejectsBadFlags: flag-level errors surface as one-line errors
// naming the flag (non-zero exit) before any dataset is generated or
// opened — never a panic, never a wrapped-around byte count.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // must appear in the error
	}{
		{[]string{"-cache-mb", "-3"}, "-cache-mb -3"},
		{[]string{"-cache-mb", "9000000000000"}, "-cache-mb 9000000000000"},
		{[]string{"-feature-cache-mb", "-3"}, "-feature-cache-mb -3"},
		{[]string{"-feature-cache-mb", "9000000000000"}, "-feature-cache-mb 9000000000000"},
		{[]string{"-targets", "-5"}, "-targets -5"},
		{[]string{"-targets", "0"}, "-targets 0"},
		{[]string{"-train", "-targets", "-5"}, "-targets -5"},
		{[]string{"-threads", "-3"}, "-threads -3"},
		{[]string{"-threads", fmt.Sprint(core.MaxThreads + 1)}, fmt.Sprintf("-threads %d", core.MaxThreads+1)},
		{[]string{"-batch", "-1"}, "-batch -1"},
	} {
		var sb strings.Builder
		err := run(tc.args, &sb)
		if err == nil {
			t.Fatalf("%v accepted", tc.args)
		}
		if msg := err.Error(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
			t.Fatalf("%v: error %q, want one line naming %q", tc.args, msg, tc.want)
		}
		if sb.Len() != 0 {
			t.Fatalf("%v: work started before the flag was rejected:\n%s", tc.args, sb.String())
		}
	}
	// The largest MiB value that fits is a budget, not an error.
	if _, err := mibFlag("-cache-mb", math.MaxInt64>>20); err != nil {
		t.Fatal(err)
	}
}

// TestRunRefusesRetiredFlags: the retired ring knobs (each lost, tied,
// or owed its gain to something the default now does), -strategy
// (uniform is the one strategy; naming it is refused too), -backend
// (the ring backend is probed), the -invariance and -train-serial
// reruns (the tests hold both guarantees), and the temporary graph's
// shape flags (-nodes, -edges, -feature-dim, -classes: the command
// opens a dataset, it does not make one) are refused by name, before
// any work starts, so a script that still passes one learns it is gone
// instead of measuring a configuration that no longer exists.
func TestRunRefusesRetiredFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-uring-sqpoll"}, {"-uring-regfiles"}, {"-uring-fixed"}, {"-depth", "64"}, {"-strategy", "uniform"},
		{"-backend", "pool"}, {"-invariance"}, {"-train-serial"},
		{"-nodes", "50000"}, {"-edges", "800000"}, {"-feature-dim", "16"}, {"-classes", "8"},
	} {
		t.Run(strings.TrimPrefix(args[0], "-"), func(t *testing.T) {
			var sb strings.Builder
			err := run(args, &sb)
			if err == nil || !strings.Contains(err.Error(), args[0]) {
				t.Fatalf("%v: err = %v, want a refusal naming %s", args, err, args[0])
			}
			if sb.Len() != 0 {
				t.Fatalf("%v: work started before the flag was refused:\n%s", args, sb.String())
			}
		})
	}
}

// TestRunRefusesUnreadFeatureCache: -feature-cache-mb without -features
// or -train would build and fill a feature cache that no stage reads; it
// is refused by name before any output, on a dataset that has features.
// With -features the same budget runs.
func TestRunRefusesUnreadFeatureCache(t *testing.T) {
	dir := rmatGraphDir(t, 2000, 30000, 11, 8, 0)
	var sb strings.Builder
	err := run([]string{"-data", dir, "-feature-cache-mb", "1", "-targets", "64"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-feature-cache-mb") {
		t.Fatalf("-feature-cache-mb without -features: err = %v, want a refusal naming -feature-cache-mb", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("work started before the flag was refused:\n%s", sb.String())
	}
	if err := run([]string{"-data", dir, "-features", "-feature-cache-mb", "1", "-targets", "64"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunRequiresData: every mode but -probe needs -data, and a run
// without it fails with one line naming -data before any output; -probe
// without it still prints the capability set.
func TestRunRequiresData(t *testing.T) {
	for _, args := range [][]string{
		nil, {"-targets", "8192", "-threads", "2"}, {"-features", "-feature-cache-mb", "1"}, {"-train"},
	} {
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil || !strings.Contains(err.Error(), "-data") || strings.Contains(err.Error(), "\n") {
			t.Fatalf("%v: err = %v, want one line naming -data", args, err)
		}
		if sb.Len() != 0 {
			t.Fatalf("%v: work started without -data:\n%s", args, sb.String())
		}
	}
	var sb strings.Builder
	if err := run([]string{"-probe"}, &sb); err != nil || !strings.Contains(sb.String(), "io_uring capabilities:") {
		t.Fatalf("-probe without -data: err = %v, output:\n%s", err, sb.String())
	}
}

// TestRunNamesProbedBackend: the dataset line names the backend that
// ran, the probed one.
func TestRunNamesProbedBackend(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-data", testGraphDir(t), "-targets", "64", "-batch", "32"}, &sb); err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("; backend %s\n", uring.Auto()); !strings.Contains(sb.String(), line) {
		t.Fatalf("output lacks %q:\n%s", line, sb.String())
	}
}

// TestUniformTargetsNonPositive: the target draw returns nothing for
// n ≤ 0 instead of panicking in makeslice.
func TestUniformTargetsNonPositive(t *testing.T) {
	rng := sample.NewRNG(1)
	for _, tc := range []struct{ n, want int }{{-5, 0}, {-1, 0}, {0, 0}, {3, 3}} {
		if got := uniformTargets(&rng, 100, tc.n); len(got) != tc.want {
			t.Fatalf("uniformTargets(n=%d) drew %d targets, want %d", tc.n, len(got), tc.want)
		}
	}
}

// TestUniformTargetsMatchesUint32Draw: below 2³² nodes the 64-bit draw
// returns exactly what a rng.Uint32n draw does, stream position
// included, so it moved no digest.
func TestUniformTargetsMatchesUint32Draw(t *testing.T) {
	const numNodes, n = 5550, 512
	rng, r := sample.NewRNG(1), sample.NewRNG(1)
	got := uniformTargets(&rng, numNodes, n)
	for i, g := range got {
		if want := r.Uint32n(numNodes); g != want {
			t.Fatalf("target %d = %d, Uint32n draws %d", i, g, want)
		}
	}
	if len(got) != n {
		t.Fatalf("drew %d targets, want %d", len(got), n)
	}
}

// TestRunProbe: -probe prints the per-feature capability set and exits
// cleanly without touching a dataset.
func TestRunProbe(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-probe"}, &sb); err != nil {
		t.Fatalf("run -probe: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"io_uring capabilities:", "ring:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("probe output missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"registered files:", "sqpoll:", "fixed buffers:"} {
		if strings.Contains(out, gone) {
			t.Fatalf("probe output still reports the retired %q:\n%s", gone, out)
		}
	}
	if !strings.Contains(out, "io_uring capabilities: "+uring.Probe().String()) {
		t.Fatalf("probe output disagrees with uring.Probe() = %s:\n%s", uring.Probe(), out)
	}
}

// TestRunKnobFlags: the knob flags thread through to a working epoch,
// downgrading (not failing) where a knob has no effect.
func TestRunKnobFlags(t *testing.T) {
	dir := testGraphDir(t)
	err := run([]string{
		"-data", dir, "-targets", "256", "-batch", "64",
		"-threads", "2", "-odirect",
	}, io.Discard)
	if err != nil {
		t.Fatalf("run with knob flags: %v", err)
	}
}

// TestRunProfiles: -cpuprofile and -trace wrap the run in a CPU profile
// (gzip-compressed protobuf) and an execution trace ("go 1.xx trace"
// header), both written and closed by the time run returns.
func TestRunProfiles(t *testing.T) {
	dir := testGraphDir(t)
	tmp := t.TempDir()
	cpu, tr := filepath.Join(tmp, "cpu.prof"), filepath.Join(tmp, "epoch.trace")
	if err := run([]string{
		"-data", dir, "-targets", "256", "-batch", "64",
		"-threads", "2", "-cpuprofile", cpu, "-trace", tr,
	}, io.Discard); err != nil {
		t.Fatalf("run with profiles: %v", err)
	}
	for _, f := range []struct{ path, magic string }{{cpu, "\x1f\x8b"}, {tr, "go 1."}} {
		b, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), f.magic) {
			t.Fatalf("%s: %d bytes starting %q, want a non-empty file starting %q",
				filepath.Base(f.path), len(b), b[:min(len(b), 8)], f.magic)
		}
	}
}

// labeledGraphDir generates a small featured+labeled R-MAT graph.
func labeledGraphDir(t *testing.T) string { return rmatGraphDir(t, 2000, 30000, 11, 8, 4) }

// TestRunTrain: -train on a labeled dataset prints the per-epoch table
// and exits cleanly, and its final weight digest equals the no-overlap
// reference's, train.Trainer.EpochSerialized run here on the same
// dataset, config and target draw (the determinism contract at the CLI
// surface).
func TestRunTrain(t *testing.T) {
	dir := labeledGraphDir(t)
	var sb strings.Builder
	if err := run([]string{
		"-data", dir, "-targets", "256", "-batch", "64",
		"-threads", "2", "-train", "-train-epochs", "2",
		"-train-hidden", "8", "-train-lr", "0.5",
	}, &sb); err != nil {
		t.Fatalf("run -train: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "labels: 4 classes") {
		t.Fatalf("startup log missing label line:\n%s", out)
	}
	// Each epoch prints its trainer line, then the sampler's io line.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-2]
	if !strings.Contains(last, "epoch  1:") || !strings.Contains(last, "weights ") {
		t.Fatalf("missing final epoch line:\n%s", out)
	}
	if io := lines[len(lines)-1]; !strings.Contains(io, "device B/target") {
		t.Fatalf("missing the final epoch's io line:\n%s", out)
	}

	// The reference: the CLI's config and model at its default seed 1,
	// and runTrain's target draw, trained serialized.
	ds, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	labels, err := ds.Labels()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed, cfg.Threads, cfg.BatchSize, cfg.FetchFeatures = 1, 2, 64, true
	s, err := core.New(ds, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	m, err := train.NewModel(train.Config{
		FeatureDim: ds.FeatureDim(), Hidden: 8, Classes: ds.NumClasses(),
		Layers: 2, LR: 0.5, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := sample.NewRNG(sample.Mix(cfg.Seed, 0x7ea14))
	targets := uniformTargets(&rng, ds.NumNodes(), 256)
	tr := &train.Trainer{Model: m, Labels: labels}
	var st *train.EpochStats
	for e := range 2 {
		if st, err = tr.EpochSerialized(context.Background(), s, targets, e); err != nil {
			t.Fatal(err)
		}
	}
	if got := last[strings.LastIndex(last, " ")+1:]; got != st.WeightsDigest {
		t.Fatalf("-train final weights %s, the serialized reference's %s", got, st.WeightsDigest)
	}
}

// TestRunTrainPrintsLearningCurve: with a feature cache big enough to
// carry counters, -train reports per epoch what the sampler moved and
// what the cache re-admitted: nothing before the first epoch, rows from
// the second on, and a hit ratio that rises once an epoch was learned
// from.
func TestRunTrainPrintsLearningCurve(t *testing.T) {
	// 1 MiB pins 15537 of the graph's 24000 16-dim vectors:
	// (1 MiB − 54188 B of counters, bitmaps and rank directory) / 64 B.
	dir := rmatGraphDir(t, 24000, 300000, 1, 16, 8)
	var sb strings.Builder
	if err := run([]string{
		"-data", dir, "-targets", "1024", "-batch", "128",
		"-threads", "2", "-train", "-train-epochs", "3", "-train-hidden", "8", "-feature-cache-mb", "1",
	}, &sb); err != nil {
		t.Fatalf("run -train: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "re-admitted by measured access counts at epoch boundaries") {
		t.Fatalf("feature cache policy line missing:\n%s", out)
	}
	if nodes, _, _, learner := featcacheGauge(t, out); nodes != 15537 || learner == 0 {
		t.Fatalf("feature cache pinned %d nodes with a %d B learner, want 15537 nodes and a learner:\n%s", nodes, learner, out)
	}
	var hits []float64
	var admitted []int
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "featcache hit ") {
			continue
		}
		var devB, hit, ms, pct float64
		var in, outRows int
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "io: %f device B/target  featcache hit %f  admitted %d evicted %d rows  re-admission %f ms (%f%% of epoch)",
			&devB, &hit, &in, &outRows, &ms, &pct); err != nil {
			t.Fatalf("io line %q: %v", line, err)
		}
		if in != outRows || devB <= 0 {
			t.Fatalf("io line %q: admitted and evicted rows differ, or no device bytes", line)
		}
		hits, admitted = append(hits, hit), append(admitted, in)
	}
	if len(hits) != 3 {
		t.Fatalf("want 3 io lines with cache counters:\n%s", out)
	}
	if admitted[0] != 0 || admitted[1] == 0 || hits[1] <= hits[0] {
		t.Fatalf("admitted %v, hit ratios %v: no learning curve:\n%s", admitted, hits, out)
	}
}

// featcacheGauge parses the featcache pinned line of out and checks its
// memory gauge: the bytes held by component sum to the bytes the budget
// was charged, which fit in the budget. It returns the pinned nodes, the
// row bytes, the index's bytes and the learner's bytes.
func featcacheGauge(t *testing.T, out string) (nodes int, rows, index, learner int64) {
	t.Helper()
	at := strings.Index(out, "featcache pinned ")
	if at < 0 {
		t.Fatalf("no featcache pinned line:\n%s", out)
	}
	var budget, charged int64
	if _, err := fmt.Sscanf(out[at:], "featcache pinned %d nodes under a %d B budget, holding rows %d B + index %d B + learner %d B = charged %d B",
		&nodes, &budget, &rows, &index, &learner, &charged); err != nil {
		t.Fatalf("featcache line: %v\n%s", err, out)
	}
	if rows+index+learner != charged || charged > budget || rows == 0 {
		t.Fatalf("feature cache holds %d + %d + %d B, charged %d B of %d:\n%s", rows, index, learner, charged, budget, out)
	}
	return nodes, rows, index, learner
}

// TestFeatcacheGaugeSumsToCharge: the plain epoch's featcache line
// reports what the cache holds by component, and the parts sum to what
// its budget was charged — for a cache that learns and one that pins
// every row (12000 × 64 B fit in 1 MiB) and so does not. Both find their
// rows by rank: the index is the pinned bitmap, 8 B per 64 nodes, and a
// 4 B directory entry per 512; only the learning one holds counters
// (2 B per node) and a re-admission bitmap.
func TestFeatcacheGaugeSumsToCharge(t *testing.T) {
	for _, c := range []struct {
		nodes          int64
		pinned         int
		index, learner int64
	}{
		{24000, 15537, 3000 + 47*4, 48000 + 3000},
		{12000, 12000, 1504 + 24*4, 0},
	} {
		var sb strings.Builder
		if err := run([]string{
			"-data", rmatGraphDir(t, c.nodes, 150000, 1, 16, 0), "-targets", "512",
			"-threads", "2", "-features", "-feature-cache-mb", "1",
		}, &sb); err != nil {
			t.Fatalf("run: %v\n%s", err, sb.String())
		}
		nodes, rows, index, learner := featcacheGauge(t, sb.String())
		if nodes != c.pinned || rows != int64(nodes)*64 || index != c.index || learner != c.learner {
			t.Fatalf("%d nodes: pinned %d rows of %d B with a %d B index and a %d B learner; want %d rows, %d B and %d B", c.nodes, nodes, rows, index, learner, c.pinned, c.index, c.learner)
		}
	}
}

// TestRunTrainRejections: training on a shard, an unlabeled dataset, or
// for no epochs fails with a clear error instead of degrading.
func TestRunTrainRejections(t *testing.T) {
	labeled := labeledGraphDir(t)
	shards, err := gen.Partition(labeled, filepath.Join(t.TempDir(), "shards"), 2)
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-data", shards[0], "-targets", "64", "-train"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unsharded") {
		t.Fatalf("shard dataset accepted for training: %v", err)
	}

	plain := testGraphDir(t) // edge-only
	err = run([]string{"-data", plain, "-targets", "64", "-train"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "needs node features") {
		t.Fatalf("feature-less dataset accepted for training: %v", err)
	}

	if err := run([]string{"-data", labeled, "-train", "-train-epochs", "0"}, io.Discard); err == nil {
		t.Fatal("-train-epochs 0 accepted")
	}
}

// TestRunProbeLabels: -probe -data reports label presence and class
// count for labeled datasets and "none" for edge-only ones.
func TestRunProbeLabels(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-probe", "-data", labeledGraphDir(t)}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "labels:           4 classes") {
		t.Fatalf("probe output missing label report:\n%s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"-probe", "-data", testGraphDir(t)}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "labels:           none") {
		t.Fatalf("probe output missing labels-none report:\n%s", sb.String())
	}
}

// TestHelpExitsZero: -h prints the usage and the command exits 0, as a
// help request succeeds; it is not an error ending in "flag: help
// requested". The test runs main in a child process of the test binary.
func TestHelpExitsZero(t *testing.T) {
	if os.Getenv("RINGSAMPLER_TEST_MAIN") == "1" {
		os.Args = []string{"epoch", "-h"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelpExitsZero$")
	cmd.Env = append(os.Environ(), "RINGSAMPLER_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "Usage of epoch:") || strings.Contains(string(out), "help requested") {
		t.Fatalf("epoch -h: %v\n%s", err, out)
	}
}
