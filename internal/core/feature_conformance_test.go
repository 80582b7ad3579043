package core

import (
	"bytes"
	"errors"
	"fmt"
	"syscall"
	"testing"

	"ringsampler/internal/cache"
	"ringsampler/internal/gen"
	"ringsampler/internal/uring"
)

// Feature-path conformance: the feature stage rides the same ring
// machinery as the adjacency reads, so it inherits the same contract —
// one fixed workload must yield byte-identical feature payloads through
// every backend, thread count, cache budget, and fast-path knob
// combination, and injected faults must be absorbed by the retry path
// without corrupting a single vector.

const featConfDim = 6

// testFeatureDatasetDir generates the standard conformance dataset with
// a feature file and returns its directory.
func testFeatureDatasetDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := gen.GenerateWith(dir, "tiny", "rmat", 2_000, 30_000, 11, gen.Options{FeatureDim: featConfDim}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// featBatch is one batch's feature payload as observed by an epoch run.
type featBatch struct {
	digest uint64
	nodes  []uint32
	dim    int
	feats  []byte
}

// epochFeaturePayload runs one epoch and captures every batch's digest
// and feature payload (deep-copied — the engine recycles batches).
func epochFeaturePayload(t *testing.T, dir string, cfg Config, be uring.Backend, targets []uint32) []featBatch {
	t.Helper()
	ds := openDS(t, dir, false)
	s, err := New(ds, cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	var out []featBatch
	_, err = runEpoch(s, targets, func(i int, b *Batch) error {
		out = append(out, featBatch{
			digest: b.Digest(),
			nodes:  append([]uint32(nil), b.FeatNodes...),
			dim:    b.FeatureDim,
			feats:  append([]byte(nil), b.Features...),
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertFeatPayloadsEqual(t *testing.T, ref, got []featBatch, label string) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d batches, reference has %d", label, len(got), len(ref))
	}
	for i := range ref {
		r, g := &ref[i], &got[i]
		if g.digest != r.digest {
			t.Fatalf("%s: batch %d digest %#x, reference %#x", label, i, g.digest, r.digest)
		}
		if g.dim != r.dim {
			t.Fatalf("%s: batch %d feature dim %d, reference %d", label, i, g.dim, r.dim)
		}
		if len(g.nodes) != len(r.nodes) {
			t.Fatalf("%s: batch %d has %d feature nodes, reference %d", label, i, len(g.nodes), len(r.nodes))
		}
		for j := range r.nodes {
			if g.nodes[j] != r.nodes[j] {
				t.Fatalf("%s: batch %d feature node %d is %d, reference %d", label, i, j, g.nodes[j], r.nodes[j])
			}
		}
		if !bytes.Equal(g.feats, r.feats) {
			t.Fatalf("%s: batch %d feature payload differs from reference (%d bytes)", label, i, len(r.feats))
		}
	}
}

// TestFeatureMatrixConformance is the headline matrix: backends (sim,
// pool, real io_uring when available, each also fault-wrapped) × thread
// counts × feature-cache budgets × fast-path knob combinations, all
// asserting byte-identical feature payloads against a single-threaded
// sim reference.
func TestFeatureMatrixConformance(t *testing.T) {
	dir := testFeatureDatasetDir(t)
	base := DefaultConfig()
	base.Seed = 42
	base.RingSize = 32 // small ring so every combo wraps and backpressures
	base.BatchSize = 64
	base.FetchFeatures = true
	targets := testTargets(openDS(t, dir, false), 256)

	refCfg := base
	refCfg.Threads = 1
	ref := epochFeaturePayload(t, dir, refCfg, uring.BackendSim, targets)
	if len(ref) == 0 {
		t.Fatal("reference epoch produced no batches")
	}
	var refFeatBytes int
	for _, b := range ref {
		refFeatBytes += len(b.feats)
		if b.dim != featConfDim || len(b.feats) != len(b.nodes)*featConfDim*4 {
			t.Fatalf("reference batch shape broken: dim %d, %d nodes, %d feature bytes",
				b.dim, len(b.nodes), len(b.feats))
		}
	}
	if refFeatBytes == 0 {
		t.Fatal("reference epoch fetched zero feature bytes")
	}

	backends := []uring.Backend{uring.BackendSim, uring.BackendPool}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	} else {
		t.Log("io_uring unavailable; real backend skipped")
	}
	mild := uring.FaultPlan{Seed: 100, ShortReadRate: 0.05, TransientRate: 0.03, RejectRate: 0.05, DelayRate: 0.1}
	wraps := []struct {
		name string
		wrap func(uring.Ring, int) (uring.Ring, error)
	}{
		{"clean", nil},
		{"faulty", faultWrap(mild)},
	}
	// The second knob set is the shallowest pipeline: a 2-deep ring
	// keeps at most two reads in flight.
	knobs := []struct {
		name string
		ring int
	}{
		{"plain", base.RingSize},
		{"depth2", 2},
	}

	for _, be := range backends {
		for _, wr := range wraps {
			for _, threads := range []int{1, 4} {
				for _, budget := range []int64{0, 1 << 20} {
					for _, kn := range knobs {
						name := fmt.Sprintf("%s/%s/threads=%d/featcache=%d/%s", be, wr.name, threads, budget, kn.name)
						t.Run(name, func(t *testing.T) {
							cfg := base
							cfg.Threads = threads
							cfg.FeatureCacheBudgetBytes = budget
							cfg.RingSize = kn.ring
							cfg.WrapRing = wr.wrap
							got := epochFeaturePayload(t, dir, cfg, be, targets)
							assertFeatPayloadsEqual(t, ref, got, name)
						})
					}
				}
			}
		}
	}
}

// featOnlyFaultWrap wraps only each worker's SECOND ring in a fault
// injector. Worker construction wraps the edge ring first and the
// feature ring on the first feature fetch, so an invocation count of
// two per worker isolates the injected faults to the feature file.
func featOnlyFaultWrap(plan uring.FaultPlan) func(uring.Ring, int) (uring.Ring, error) {
	calls := map[int]int{}
	return func(r uring.Ring, workerID int) (uring.Ring, error) {
		calls[workerID]++
		if calls[workerID] == 1 {
			return r, nil // edge ring: untouched
		}
		p := plan
		p.Seed = plan.Seed + uint64(workerID)
		return uring.NewFault(r, p)
	}
}

// TestFeatureFaultRecovery: short reads that split a feature vector
// mid-record, transient errnos, and submission rejections on the
// feature ring alone must all be absorbed by byte-granular resubmission
// — the payload stays identical to the clean run and the shared retry
// counters prove the path was exercised.
func TestFeatureFaultRecovery(t *testing.T) {
	dir := testFeatureDatasetDir(t)
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.RingSize = 32
	targets := testTargets(openDS(t, dir, false), 128)

	refW := newFeatWorker(t, dir, cfg, uring.BackendSim)
	refB, err := refW.SampleBatchOpts(targets, BatchOpts{Fanouts: cfg.Fanouts, Seed: cfg.Seed, Features: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(refB.Features) == 0 {
		t.Fatal("reference batch has no feature payload")
	}

	// The feature stride is 24 bytes, so a short-read fraction this high
	// guarantees splits inside a vector, not just between vectors.
	nasty := uring.FaultPlan{Seed: 300, ShortReadRate: 0.3, TransientRate: 0.1, RejectRate: 0.15, DelayRate: 0.2, MaxDelay: 5}
	for _, be := range []uring.Backend{uring.BackendSim, uring.BackendPool} {
		t.Run(string(be), func(t *testing.T) {
			c := cfg
			c.WrapRing = featOnlyFaultWrap(nasty)
			w := newFeatWorker(t, dir, c, be)
			got, err := w.SampleBatchOpts(targets, BatchOpts{Fanouts: cfg.Fanouts, Seed: cfg.Seed, Features: true})
			if err != nil {
				t.Fatal(err)
			}
			assertBatchesEqual(t, refB, got, string(be))
			if !bytes.Equal(refB.Features, got.Features) {
				t.Fatal("feature payload differs under feature-ring faults")
			}
			if got.Digest() != refB.Digest() {
				t.Fatal("digest differs under feature-ring faults")
			}
			if fs, ok := uring.Faults(w.edge.Ring); ok && fs.Total() != 0 {
				t.Fatalf("edge ring saw %d injected faults; the wrap was meant to be feature-only", fs.Total())
			}
			fs, ok := uring.Faults(w.feat.Ring)
			if !ok || fs.Total() == 0 {
				t.Fatal("feature ring injected nothing")
			}
			st := w.IOStats()
			if st.Retries == 0 || st.ShortReads == 0 {
				t.Fatalf("fault run recorded retries=%d shortReads=%d; retry path not exercised", st.Retries, st.ShortReads)
			}
			if st.FeatReads == 0 || st.FeatBytesRead == 0 {
				t.Fatalf("feature counters empty: %+v", st)
			}
		})
	}
}

// TestFeatureHardErrorSurfacesAndRecovers: a hard -EIO on every feature
// read fails the batch with a structured *IOError, the quarantine
// leaves the worker reusable for edge-only batches, and a fresh clean
// worker reproduces the reference payload bit for bit.
func TestFeatureHardErrorSurfacesAndRecovers(t *testing.T) {
	dir := testFeatureDatasetDir(t)
	cfg := DefaultConfig()
	cfg.Seed = 42
	targets := testTargets(openDS(t, dir, false), 64)

	refW := newFeatWorker(t, dir, cfg, uring.BackendSim)
	refB, err := refW.SampleBatchOpts(targets, BatchOpts{Fanouts: cfg.Fanouts, Seed: cfg.Seed, Features: true})
	if err != nil {
		t.Fatal(err)
	}

	for _, be := range []uring.Backend{uring.BackendSim, uring.BackendPool} {
		t.Run(string(be), func(t *testing.T) {
			c := cfg
			c.WrapRing = featOnlyFaultWrap(uring.FaultPlan{Seed: 9, HardErrRate: 1})
			w := newFeatWorker(t, dir, c, be)
			_, err := w.SampleBatchOpts(targets, BatchOpts{Fanouts: cfg.Fanouts, Seed: cfg.Seed, Features: true})
			var ioe *IOError
			if !errors.As(err, &ioe) {
				t.Fatalf("err = %v (%T), want *IOError", err, err)
			}
			if ioe.Errno != syscall.EIO {
				t.Fatalf("Errno = %v, want EIO", ioe.Errno)
			}
			if w.Broken() {
				t.Fatal("quarantine after a clean drain should not break the worker")
			}
			// Edge-only sampling on the same worker still works: the fault
			// wrap only poisons the feature ring.
			edgeB, err := w.SampleBatchOpts(targets, BatchOpts{Fanouts: cfg.Fanouts, Seed: cfg.Seed})
			if err != nil {
				t.Fatalf("edge-only batch after feature failure: %v", err)
			}
			assertBatchesEqual(t, refB, edgeB, "edge-only after feature -EIO")

			clean := newFeatWorker(t, dir, cfg, be)
			got, err := clean.SampleBatchOpts(targets, BatchOpts{Fanouts: cfg.Fanouts, Seed: cfg.Seed, Features: true})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refB.Features, got.Features) || got.Digest() != refB.Digest() {
				t.Fatal("replacement worker's payload differs from the reference")
			}
		})
	}
}

func newFeatWorker(t *testing.T, dir string, cfg Config, be uring.Backend) *Worker {
	t.Helper()
	s, err := New(openDS(t, dir, false), cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestFeatureCacheAdversarialOrder is the feature-path mirror of the
// edge path's adversarial-order regression (PR 4): a run of
// file-adjacent nodes straddling a cache hit must NOT coalesce across
// the hit, because the hit advances the output position without
// appending a run — file adjacency alone would land the second read at
// the wrong buffer offset and overwrite the cached vector's slot.
func TestFeatureCacheAdversarialOrder(t *testing.T) {
	dir := testFeatureDatasetDir(t)
	ds := openDS(t, dir, false)
	stride := ds.FeatureStride()

	// Budget for exactly one cached node: the top-degree hub.
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.FeatureCacheBudgetBytes = cache.FeatureBudget(ds.NumNodes(), stride, 1, false)

	for _, be := range []uring.Backend{uring.BackendSim, uring.BackendPool} {
		t.Run(string(be), func(t *testing.T) {
			s, err := New(ds, cfg, be)
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := s.FeatureCacheInfo(); n != 1 {
				t.Fatalf("budget %d pinned %d nodes, want exactly 1", cfg.FeatureCacheBudgetBytes, n)
			}
			// The cached node is the degree-first winner: max degree, lowest
			// id on ties — recompute it independently of the cache builder.
			hub := uint32(0)
			var hubDeg int64
			for v := int64(0); v < ds.NumNodes(); v++ {
				st, en := ds.Range(uint32(v))
				if d := en - st; d > hubDeg {
					hubDeg, hub = d, uint32(v)
				}
			}
			w, err := s.NewWorker(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			// Two file-adjacent uncached nodes straddling the cached hub.
			v := hub + 7
			if int64(v)+1 >= ds.NumNodes() {
				v = 0
			}
			nodes := []uint32{v, hub, v + 1}
			got, err := w.FetchFeatures(nodes)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 3*stride)
			reads := make([]uring.Read, len(nodes))
			for i, n := range nodes {
				reads[i] = uring.Read{Off: int64(n) * stride, Pos: int64(i) * stride, Len: stride}
			}
			if _, err := ds.FeatureReadBatch(want, reads); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("adversarial order corrupted the payload:\n got %x\nwant %x", got, want)
			}
			st := w.IOStats()
			if st.FeatCacheHits != 1 || st.FeatCacheMisses != 2 {
				t.Fatalf("cache accounting hits=%d misses=%d, want 1/2", st.FeatCacheHits, st.FeatCacheMisses)
			}
		})
	}
}

// TestFeatureDigestBackCompat: a batch sampled without the feature
// stage must keep its pre-feature digest — the digest only folds the
// feature payload when one exists, so every digest recorded by earlier
// PRs is still reproducible.
func TestFeatureDigestBackCompat(t *testing.T) {
	dir := testFeatureDatasetDir(t)
	cfg := DefaultConfig()
	cfg.Seed = 7
	targets := testTargets(openDS(t, dir, false), 64)

	plainW := newFeatWorker(t, dir, cfg, uring.BackendSim)
	plain, err := plainW.SampleBatchOpts(targets, BatchOpts{Fanouts: cfg.Fanouts, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	w := newFeatWorker(t, dir, cfg, uring.BackendSim)
	withFeats, err := w.SampleBatchOpts(targets, BatchOpts{Fanouts: cfg.Fanouts, Seed: cfg.Seed, Features: true})
	if err != nil {
		t.Fatal(err)
	}
	assertBatchesEqual(t, plain, withFeats, "feature stage must not perturb sampling")
	if plain.Digest() == withFeats.Digest() {
		t.Fatal("feature payload did not fold into the digest")
	}
	stripped := *withFeats
	stripped.FeatNodes, stripped.Features, stripped.FeatureDim = nil, nil, 0
	if stripped.Digest() != plain.Digest() {
		t.Fatal("feature-less digest changed — old recorded digests would no longer reproduce")
	}
}

// TestFetchFeaturesValidation: out-of-range nodes error cleanly, an
// edge-only dataset refuses the feature stage at sampler construction,
// and duplicate inputs each get their own record in input order.
func TestFetchFeaturesValidation(t *testing.T) {
	dir := testFeatureDatasetDir(t)
	ds := openDS(t, dir, false)
	cfg := DefaultConfig()
	w := newFeatWorker(t, dir, cfg, uring.BackendSim)
	if _, err := w.FetchFeatures([]uint32{uint32(ds.NumNodes())}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	stride := int(ds.FeatureStride())
	got, err := w.FetchFeatures([]uint32{5, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*stride {
		t.Fatalf("3 inputs yielded %d bytes, want %d", len(got), 3*stride)
	}
	if !bytes.Equal(got[:stride], got[stride:2*stride]) {
		t.Fatal("duplicate inputs produced different records")
	}

	// Edge-only dataset: the feature stage is refused up front.
	plainDir := testDatasetDir(t)
	plainDS := openDS(t, plainDir, false)
	bad := DefaultConfig()
	bad.FetchFeatures = true
	if _, err := New(plainDS, bad, uring.BackendSim); err == nil {
		t.Fatal("FetchFeatures accepted for an edge-only dataset")
	}
	bad = DefaultConfig()
	bad.FeatureCacheBudgetBytes = 1 << 20
	if _, err := New(plainDS, bad, uring.BackendSim); err == nil {
		t.Fatal("feature cache budget accepted for an edge-only dataset")
	}
}
