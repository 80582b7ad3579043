package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringsampler/internal/gen"
	"ringsampler/internal/uring"
)

// testGraphDir generates a small R-MAT graph once per test.
func testGraphDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "g")
	if _, err := gen.Generate(dir, "cli-test", "rmat", 2000, 30000, 11); err != nil {
		t.Fatal(err)
	}
	return dir
}

// flipRing corrupts exactly one successful read: the low byte of the
// first completed buffer is XOR-ed with 1, nudging one sampled neighbor
// id by ±1 — the smallest perturbation a digest diff must catch.
type flipRing struct {
	inner uring.Ring
	bufs  map[uint64][]byte
	done  bool
}

func (r *flipRing) PrepRead(id uint64, off int64, buf []byte) bool {
	if !r.inner.PrepRead(id, off, buf) {
		return false
	}
	r.bufs[id] = buf
	return true
}
func (r *flipRing) PrepReadFixed(id uint64, off int64, buf []byte, bufIndex int) bool {
	if !r.inner.PrepReadFixed(id, off, buf, bufIndex) {
		return false
	}
	r.bufs[id] = buf
	return true
}
func (r *flipRing) Submit() (int, error) { return r.inner.Submit() }
func (r *flipRing) Entries() int         { return r.inner.Entries() }
func (r *flipRing) Close() error         { return r.inner.Close() }

func (r *flipRing) Wait(min int) ([]uring.CQE, error) {
	cqes, err := r.inner.Wait(min)
	for _, c := range cqes {
		if !r.done && c.Res > 0 {
			r.bufs[c.ID][0] ^= 1
			r.done = true
		}
	}
	return cqes, err
}

// TestRunInvarianceHappyPath: the full pipeline — including the cache —
// passes the invariance diff and exits cleanly.
func TestRunInvarianceHappyPath(t *testing.T) {
	dir := testGraphDir(t)
	err := run([]string{
		"-data", dir, "-backend", "sim", "-targets", "256", "-batch", "64",
		"-threads", "4", "-cache-mb", "1", "-invariance",
	}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunInvarianceDetectsPerturbation: when one read in the -threads
// run is perturbed (and the 1/2-thread reruns are clean), -invariance
// must fail — the non-zero-exit contract CI relies on. main wraps the
// returned error in log.Fatal, so a non-nil error IS a non-zero exit.
func TestRunInvarianceDetectsPerturbation(t *testing.T) {
	dir := testGraphDir(t)
	testWrapRing = func(threads int) func(uring.Ring, int) (uring.Ring, error) {
		if threads != 4 {
			return nil // reruns at 1 and 2 threads stay clean
		}
		return func(r uring.Ring, workerID int) (uring.Ring, error) {
			return &flipRing{inner: r, bufs: make(map[uint64][]byte)}, nil
		}
	}
	defer func() { testWrapRing = nil }()
	err := run([]string{
		"-data", dir, "-backend", "sim", "-targets", "256", "-batch", "64",
		"-threads", "4", "-invariance",
	}, io.Discard)
	if err == nil {
		t.Fatal("perturbed -invariance run exited clean")
	}
	if !strings.Contains(err.Error(), "invariance VIOLATED") {
		t.Fatalf("err = %v, want an invariance violation", err)
	}
}

// TestRunBenchJSON: -bench-json writes the two-point (0 and 64 MiB)
// summary; 64 MiB swallows the whole test graph, so the cached point
// must show a full hit rate and zero device bytes.
func TestRunBenchJSON(t *testing.T) {
	dir := testGraphDir(t)
	path := filepath.Join(t.TempDir(), "BENCH_epoch.json")
	err := run([]string{
		"-data", dir, "-backend", "pool", "-targets", "256", "-batch", "64",
		"-threads", "2", "-bench-json", path,
	}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(bf.Points) != 2 || bf.Points[0].CacheMB != 0 || bf.Points[1].CacheMB != 64 {
		t.Fatalf("unexpected points: %+v", bf.Points)
	}
	p0, p64 := bf.Points[0], bf.Points[1]
	if p0.EntriesPerSec <= 0 || p64.EntriesPerSec <= 0 {
		t.Fatalf("non-positive throughput: %+v", bf.Points)
	}
	if p0.CacheHitRate != 0 || p0.CacheNodes != 0 {
		t.Fatalf("cache-off point reports cache activity: %+v", p0)
	}
	if p64.CacheHitRate != 1 || p64.DeviceBytes != 0 {
		t.Fatalf("64 MiB point should fully cache the test graph: %+v", p64)
	}
	if p0.Sampled != p64.Sampled {
		t.Fatalf("cache changed the sampled-entry count: %d vs %d", p0.Sampled, p64.Sampled)
	}
}

// TestRunRejectsBadFlags: flag-level errors surface as errors (non-zero
// exit), not silent acceptance.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-backend", "nope"}, io.Discard); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if err := run([]string{"-cache-mb", "-3"}, io.Discard); err == nil {
		t.Fatal("negative cache budget accepted")
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
	for _, want := range []string{"io_uring capabilities:", "fixed buffers:", "registered files:", "sqpoll:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("probe output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "io_uring capabilities: "+uring.Probe().String()) {
		t.Fatalf("probe output disagrees with uring.Probe() = %s:\n%s", uring.Probe(), out)
	}
}

// TestRunKnobFlags: the knob flags thread through to a working epoch on
// every backend, downgrading (not failing) where a knob has no effect.
func TestRunKnobFlags(t *testing.T) {
	dir := testGraphDir(t)
	err := run([]string{
		"-data", dir, "-backend", "pool", "-targets", "256", "-batch", "64",
		"-threads", "2", "-uring-fixed", "-uring-regfiles", "-uring-sqpoll",
		"-odirect", "-depth", "8",
	}, io.Discard)
	if err != nil {
		t.Fatalf("run with knob flags: %v", err)
	}
}

// TestRunBenchUring: the quick knob sweep writes a two-point
// (plain, fixed) JSON summary with identical digests and positive
// throughput.
func TestRunBenchUring(t *testing.T) {
	dir := testGraphDir(t)
	path := filepath.Join(t.TempDir(), "BENCH_uring.json")
	err := run([]string{
		"-data", dir, "-backend", "pool", "-targets", "256", "-batch", "64",
		"-threads", "2", "-bench-uring", path, "-bench-uring-quick",
	}, io.Discard)
	if err != nil {
		t.Fatalf("run -bench-uring: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sf struct {
		Backend string `json:"backend"`
		Caps    string `json:"caps"`
		Points  []struct {
			Combo         string  `json:"combo"`
			Active        string  `json:"active"`
			EntriesPerSec float64 `json:"entries_per_sec"`
			FixedReads    int64   `json:"fixed_reads"`
			Digest        uint64  `json:"digest"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &sf); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(sf.Points) != 2 || sf.Points[0].Combo != "plain" || sf.Points[1].Combo != "fixed" {
		t.Fatalf("unexpected points: %+v", sf.Points)
	}
	if sf.Points[0].Digest != sf.Points[1].Digest {
		t.Fatal("quick sweep digests differ between plain and fixed")
	}
	for _, p := range sf.Points {
		if p.EntriesPerSec <= 0 {
			t.Fatalf("non-positive throughput: %+v", p)
		}
	}
	if sf.Points[1].FixedReads == 0 {
		t.Fatal("fixed point recorded no fixed reads")
	}
	if sf.Caps == "" {
		t.Fatal("sweep file missing probed caps")
	}
}

// labeledGraphDir generates a small featured+labeled R-MAT graph.
func labeledGraphDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "g")
	if _, err := gen.GenerateWith(dir, "cli-train", "rmat", 2000, 30000, 11,
		gen.Options{FeatureDim: 8, NumClasses: 4}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRunTrain: -train on a labeled dataset prints the per-epoch table
// and exits cleanly in both pipeline modes; the final weight digests of
// the two modes agree (the determinism contract at the CLI surface).
func TestRunTrain(t *testing.T) {
	dir := labeledGraphDir(t)
	digest := func(serial bool) string {
		var sb strings.Builder
		args := []string{
			"-data", dir, "-backend", "pool", "-targets", "256", "-batch", "64",
			"-threads", "2", "-train", "-train-epochs", "2",
			"-train-hidden", "8", "-train-lr", "0.5",
		}
		if serial {
			args = append(args, "-train-serial")
		}
		if err := run(args, &sb); err != nil {
			t.Fatalf("run -train (serial=%v): %v\n%s", serial, err, sb.String())
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
		return last[strings.LastIndex(last, " ")+1:]
	}
	if over, ser := digest(false), digest(true); over != ser {
		t.Fatalf("overlapped and serialized final weights differ: %s vs %s", over, ser)
	}
}

// TestRunTrainPrintsLearningCurve: with a feature cache big enough to
// carry counters, -train reports per epoch what the sampler moved and
// what the cache re-admitted: nothing before the first epoch, rows from
// the second on, and a hit ratio that rises once an epoch was learned
// from.
func TestRunTrainPrintsLearningCurve(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{
		// 1 MiB pins 9362 of the temporary graph's 12000 16-dim vectors.
		"-backend", "pool", "-nodes", "12000", "-edges", "150000", "-targets", "1024", "-batch", "128",
		"-threads", "2", "-train", "-train-epochs", "3", "-train-hidden", "8", "-feature-cache-mb", "1",
	}, &sb); err != nil {
		t.Fatalf("run -train: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "re-admitted by measured access counts at epoch boundaries") {
		t.Fatalf("feature cache policy line missing:\n%s", out)
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

// TestRunTrainTempGraph: -train with no -data defaults the temporary
// graph to a trainable shape (features + labels) instead of failing.
func TestRunTrainTempGraph(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-backend", "pool", "-nodes", "1500", "-edges", "20000",
		"-targets", "128", "-batch", "64", "-threads", "2",
		"-train", "-train-epochs", "1", "-train-hidden", "8",
	}, &sb)
	if err != nil {
		t.Fatalf("run -train on temp graph: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "16-dim features, 8 classes") {
		t.Fatalf("temp graph did not default to a trainable shape:\n%s", sb.String())
	}
}

// TestRunTrainRejections: training on a shard, an unlabeled dataset, or
// with bad label flags fails with a clear error instead of degrading.
func TestRunTrainRejections(t *testing.T) {
	labeled := labeledGraphDir(t)
	shards, err := gen.Partition(labeled, filepath.Join(t.TempDir(), "shards"), 2)
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-data", shards[0], "-backend", "pool", "-targets", "64", "-train"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unsharded") {
		t.Fatalf("shard dataset accepted for training: %v", err)
	}

	plain := testGraphDir(t) // edge-only
	err = run([]string{"-data", plain, "-backend", "pool", "-targets", "64", "-train"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "needs node features") {
		t.Fatalf("feature-less dataset accepted for training: %v", err)
	}

	if err := run([]string{"-classes", "-1"}, io.Discard); err == nil {
		t.Fatal("negative -classes accepted")
	}
	if err := run([]string{"-data", labeled, "-classes", "4"}, io.Discard); err == nil {
		t.Fatal("-classes with -data accepted")
	}
	if err := run([]string{"-data", labeled, "-backend", "pool", "-train", "-train-epochs", "0"}, io.Discard); err == nil {
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

// TestRunBenchTrain: the quick training sweep writes the four-point
// JSON summary with bit-identical final weights across all points.
func TestRunBenchTrain(t *testing.T) {
	dir := labeledGraphDir(t)
	path := filepath.Join(t.TempDir(), "BENCH_train.json")
	err := run([]string{
		"-data", dir, "-backend", "pool", "-targets", "256", "-batch", "64",
		"-threads", "2", "-train-epochs", "1", "-train-hidden", "8",
		"-bench-train", path, "-bench-train-quick",
	}, io.Discard)
	if err != nil {
		t.Fatalf("run -bench-train: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Classes int `json:"classes"`
		Points  []struct {
			Serialized    bool    `json:"serialized"`
			FeatCache     bool    `json:"featCache"`
			FinalDigest   string  `json:"finalDigest"`
			EntriesPerSec float64 `json:"entriesPerSec"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if tf.Classes != 4 || len(tf.Points) != 4 {
		t.Fatalf("unexpected sweep file: classes %d, %d points", tf.Classes, len(tf.Points))
	}
	for _, p := range tf.Points {
		if p.FinalDigest != tf.Points[0].FinalDigest {
			t.Fatalf("final weights differ across points: %+v", tf.Points)
		}
		if p.EntriesPerSec <= 0 {
			t.Fatalf("non-positive training throughput: %+v", p)
		}
	}
}
