package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"ringsampler/internal/exp"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
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

// TestRunRejectsBadFlags: flag-level errors surface as one-line errors
// naming the flag (non-zero exit) before any dataset is generated or
// opened — never a panic, never a wrapped-around byte count.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // must appear in the error
	}{
		{[]string{"-backend", "nope"}, `unknown backend "nope"`},
		{[]string{"-cache-mb", "-3"}, "-cache-mb -3"},
		{[]string{"-cache-mb", "9000000000000"}, "-cache-mb 9000000000000"},
		{[]string{"-feature-cache-mb", "-3"}, "-feature-cache-mb -3"},
		{[]string{"-feature-cache-mb", "9000000000000"}, "-feature-cache-mb 9000000000000"},
		{[]string{"-targets", "-5"}, "-targets -5"},
		{[]string{"-targets", "0"}, "-targets 0"},
		{[]string{"-train", "-targets", "-5"}, "-targets -5"},
		{[]string{"-threads", "-3"}, "-threads -3"},
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

// TestUniformTargetsNonPositive: the shared target draw returns nothing
// for n ≤ 0 instead of panicking in makeslice.
func TestUniformTargetsNonPositive(t *testing.T) {
	rng := sample.NewRNG(1)
	for _, tc := range []struct{ n, want int }{{-5, 0}, {-1, 0}, {0, 0}, {3, 3}} {
		if got := exp.UniformTargets(&rng, 100, tc.n); len(got) != tc.want {
			t.Fatalf("UniformTargets(n=%d) drew %d targets, want %d", tc.n, len(got), tc.want)
		}
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
