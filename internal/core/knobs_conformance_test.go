package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ringsampler/internal/gen"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// Knob conformance: the fast-path knob, O_DIRECT, is a pure
// performance lever. The sampled byte stream must be identical to the
// plain path with it on and off, on every backend that runs here. An O_DIRECT open the filesystem refuses still runs: the dataset
// probe downgrades it, and IOStats.ActiveODirect must report exactly
// what actually ran.

// testDatasetDir generates the standard conformance dataset and returns
// its directory, so tests can reopen it with different OpenOptions.
func testDatasetDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := gen.Generate(dir, "tiny", "rmat", 2_000, 30_000, 11); err != nil {
		t.Fatal(err)
	}
	return dir
}

func openDS(t *testing.T, dir string, direct bool) *storage.Dataset {
	t.Helper()
	ds, err := storage.OpenWith(dir, storage.OpenOptions{Direct: direct})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

func TestKnobMatrixConformance(t *testing.T) {
	dir := testDatasetDir(t)
	base := DefaultConfig()
	base.Seed = 42
	base.RingSize = 32 // small ring so every combo wraps and backpressures
	targets := testTargets(openDS(t, dir, false), 128)

	ref := sampleOnce(t, openDS(t, dir, false), base, uring.BackendSim, targets)
	if ref.TotalSampled() == 0 {
		t.Fatal("reference plan sampled nothing")
	}

	backends := []uring.Backend{uring.BackendSim, uring.BackendPool}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	} else {
		t.Log("io_uring unavailable; real backend skipped")
	}

	for _, be := range backends {
		for _, direct := range []bool{false, true} {
			name := fmt.Sprintf("%s/odirect=%v", be, direct)
			t.Run(name, func(t *testing.T) {
				ds := openDS(t, dir, direct)
				s, err := New(ds, base, be)
				if err != nil {
					t.Fatal(err)
				}
				w, err := s.NewWorker(0)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				got, err := w.SampleBatchOpts(targets, BatchOpts{Seed: base.Seed})
				if err != nil {
					t.Fatal(err)
				}
				assertBatchesEqual(t, ref, got, name)

				// ActiveODirect must report what actually ran: the
				// request intersected with what the filesystem grants.
				st := w.IOStats()
				if wantDirect := ds.DirectAlign() > 0; st.ActiveODirect != wantDirect {
					t.Fatalf("active O_DIRECT %v, want %v", st.ActiveODirect, wantDirect)
				}
				if st.FixedReads != 0 {
					t.Fatalf("FixedReads = %d with no registered buffers", st.FixedReads)
				}
				if st.ActiveODirect && st.AlignSlackBytes == 0 {
					t.Fatal("O_DIRECT active but zero alignment slack — aligned windows not exercised")
				}
				if !st.ActiveODirect && st.AlignSlackBytes != 0 {
					t.Fatalf("buffered run reports AlignSlackBytes = %d", st.AlignSlackBytes)
				}
				if st.SubmitSyscalls+st.WaitSyscalls == 0 {
					t.Fatal("worker recorded zero ring syscalls")
				}
				if direct && ds.DirectAlign() == 0 {
					t.Logf("O_DIRECT fell back to buffered: %v", ds.DirectFallback())
				}
			})
		}
	}
}

// TestKnobMatrixFillsRing repeats the O_DIRECT axis on the real ring with
// batches large enough that every layer needs dozens of submit groups.
// The 2 000-node matrix above never stages more than one SQ's worth per
// layer, so it cannot show a ring that refuses a full-SQ group it
// should take (DESIGN.md §14's SQPOLL stall passed it that way). Each
// combination runs eight batches, about 500 full groups.
func TestKnobMatrixFillsRing(t *testing.T) {
	if !uring.Probe().Ring {
		t.Skip("io_uring unavailable; the pool and sim backends have no SQ to fill")
	}
	dir := t.TempDir()
	if _, err := gen.Generate(dir, "ringfill", "rmat", 100_000, 2_000_000, 11); err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	base.Seed = 42
	base.Fanouts = []int{20, 15, 10}
	base.BatchSize = 512
	base.Threads = 1
	const batches = 8
	targets := testTargets(openDS(t, dir, false), batches*base.BatchSize)

	// The reference comes from the pool backend, which shares none of the
	// ring's submission code.
	s, err := New(openDS(t, dir, false), base, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runEpoch(s, targets, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, direct := range []bool{false, true} {
		name := fmt.Sprintf("odirect=%v", direct)
		t.Run(name, func(t *testing.T) {
			ds := openDS(t, dir, direct)
			if direct && ds.DirectAlign() == 0 {
				t.Skipf("O_DIRECT fell back to buffered: %v", ds.DirectFallback())
			}
			cfg := base
			s, err := New(ds, cfg, uring.BackendIOURing)
			if err != nil {
				t.Fatal(err)
			}
			st, err := runEpoch(s, targets, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(st.Digests, ref.Digests) {
				t.Fatalf("per-batch digests %x differ from the plain pool run's %x", st.Digests, ref.Digests)
			}
			io := st.IO
			if io.ActiveODirect != direct {
				t.Fatalf("active O_DIRECT %v differs from the probed request", io.ActiveODirect)
			}
			// The premise: far more reads than one SQ per layer, harvested
			// in several groups.
			perLayer := int64(batches * len(cfg.Fanouts))
			if io.Reads <= perLayer*int64(cfg.RingSize) || (io.SubmitSyscalls <= perLayer && io.WaitSyscalls <= perLayer) {
				t.Fatalf("%d reads in %d submit / %d wait syscalls over %d layers: the batches never filled the %d-entry ring",
					io.Reads, io.SubmitSyscalls, io.WaitSyscalls, perLayer, cfg.RingSize)
			}
		})
	}
}

// TestDepthBoundedConformance: the ring's depth is the one bound on
// reads in flight. A shallow ring reshapes the pipeline (and the
// O_DIRECT scratch pool) but never the bytes; depth 1 degenerates to
// one read at a time and must still finish and agree. Depth 3 is not a
// power of two, so the real backend rounds it up and the emulations
// take it as given.
func TestDepthBoundedConformance(t *testing.T) {
	dir := testDatasetDir(t)
	base := DefaultConfig()
	base.Seed = 42
	base.RingSize = 32
	targets := testTargets(openDS(t, dir, false), 128)
	ref := sampleOnce(t, openDS(t, dir, false), base, uring.BackendSim, targets)

	backends := []uring.Backend{uring.BackendSim, uring.BackendPool}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	for _, be := range backends {
		for _, depth := range []int{1, 3, 8} {
			for _, direct := range []bool{false, true} {
				name := fmt.Sprintf("%s/depth=%d/odirect=%v", be, depth, direct)
				t.Run(name, func(t *testing.T) {
					cfg := base
					cfg.RingSize = depth // with O_DIRECT: arena chunks + a shallow ring
					got := sampleOnce(t, openDS(t, dir, direct), cfg, be, targets)
					assertBatchesEqual(t, ref, got, name)
				})
			}
		}
	}
}

// TestKnobsWithFaultsConformance: fault injection on the plain path
// (never with O_DIRECT — truncating an aligned read's length would make
// it unaligned, which a real O_DIRECT fd rejects) must still retry to
// the exact reference bytes through the asynchronous pipeline.
func TestKnobsWithFaultsConformance(t *testing.T) {
	dir := testDatasetDir(t)
	base := DefaultConfig()
	base.Seed = 42
	base.RingSize = 32
	targets := testTargets(openDS(t, dir, false), 128)
	ref := sampleOnce(t, openDS(t, dir, false), base, uring.BackendSim, targets)

	plan := uring.FaultPlan{Seed: 100, ShortReadRate: 0.1, TransientRate: 0.05, RejectRate: 0.1, DelayRate: 0.2}
	backends := []uring.Backend{uring.BackendSim, uring.BackendPool}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	for _, be := range backends {
		// The engine's one pipeline is the asynchronous one; the
		// subtest keeps the name it had when a submit-then-wait
		// pipeline ran beside it.
		t.Run(string(be), func(t *testing.T) {
			t.Run("async=true", func(t *testing.T) {
				cfg := base
				cfg.WrapRing = faultWrap(plan)
				s, err := New(openDS(t, dir, false), cfg, be)
				if err != nil {
					t.Fatal(err)
				}
				w, err := s.NewWorker(0)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				got, err := w.SampleBatchOpts(targets, BatchOpts{Seed: cfg.Seed})
				if err != nil {
					t.Fatal(err)
				}
				assertBatchesEqual(t, ref, got, t.Name())
				fs, _ := uring.Faults(w.edge.Ring)
				if fs.Total() == 0 {
					t.Fatal("fault-wrapped run injected nothing")
				}
				if st := w.IOStats(); st.Retries == 0 {
					t.Fatal("faults injected but no read was retried")
				}
			})
		})
	}
}

// TestODirectTinyFileStraddle: a dataset whose whole edge file is
// smaller than one O_DIRECT block means EVERY aligned read window
// straddles EOF and completes short — the worker's early-completion
// check (interior covered despite a short device read) carries the
// entire batch. Digest must match the buffered run exactly.
func TestODirectTinyFileStraddle(t *testing.T) {
	dir := t.TempDir()
	// 30 nodes, 100 edges -> 400-byte edge file, under even a 512 block.
	if _, err := gen.Generate(dir, "tiny", "rmat", 30, 100, 3); err != nil {
		t.Fatal(err)
	}
	direct := openDS(t, dir, true)
	if direct.DirectAlign() == 0 {
		t.Skipf("O_DIRECT unavailable: %v", direct.DirectFallback())
	}
	if sz := direct.NumEdges() * storage.EntryBytes; sz >= int64(direct.DirectAlign()) {
		t.Fatalf("edge file %d bytes not under the %d block — test premise broken", sz, direct.DirectAlign())
	}
	cfg := DefaultConfig()
	cfg.Seed = 9
	targets := testTargets(direct, 32)
	ref := sampleOnce(t, openDS(t, dir, false), cfg, uring.BackendSim, targets)

	backends := []uring.Backend{uring.BackendSim, uring.BackendPool}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	for _, be := range backends {
		t.Run(string(be), func(t *testing.T) {
			s, err := New(direct, cfg, be)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.NewWorker(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			got, err := w.SampleBatchOpts(targets, BatchOpts{Seed: cfg.Seed})
			if err != nil {
				t.Fatal(err)
			}
			assertBatchesEqual(t, ref, got, string(be))
			st := w.IOStats()
			if !st.ActiveODirect {
				t.Fatal("O_DIRECT inactive despite direct open")
			}
			if st.Reads > 0 && st.AlignSlackBytes == 0 {
				t.Fatal("every window straddles EOF yet zero slack recorded")
			}
		})
	}
}

// prepRecorder records the memory of every read staged through it.
type prepRecorder struct {
	uring.Ring
	bufs [][]byte
}

func (r *prepRecorder) PrepRead(id uint64, off int64, buf []byte) bool {
	if !r.Ring.PrepRead(id, off, buf) {
		return false
	}
	r.bufs = append(r.bufs, buf)
	return true
}

// within reports whether buf lies inside arena's memory.
func within(arena, buf []byte) bool {
	a, b := uintptr(unsafe.Pointer(unsafe.SliceData(arena))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return len(arena) > 0 && b >= a && b+uintptr(len(buf)) <= a+uintptr(len(arena))
}

// TestDirectWindowsShareOneArena: a worker over an O_DIRECT dataset with
// features reads every window that fits a 16 KiB chunk through one
// arena of DefaultArenaBytes, shared by its edge and feature drivers —
// no knob asks for it — and the batch is the buffered one.
func TestDirectWindowsShareOneArena(t *testing.T) {
	const chunk = 16 << 10
	dir := testFeatureDatasetDir(t)
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.RingSize = 32 // at most 64 windows in flight: every one gets a chunk
	cfg.FetchFeatures = true
	targets := testTargets(openDS(t, dir, false), 128)
	ref := sampleOnce(t, openDS(t, dir, false), cfg, uring.BackendSim, targets)

	direct := openDS(t, dir, true)
	if direct.DirectAlign() == 0 || direct.FeatureAlign() == 0 {
		t.Skipf("O_DIRECT unavailable: %v", direct.DirectFallback())
	}
	backends := []uring.Backend{uring.BackendSim, uring.BackendPool}
	if uring.Probe().Ring {
		backends = append(backends, uring.BackendIOURing)
	}
	for _, be := range backends {
		t.Run(string(be), func(t *testing.T) {
			var rings []*prepRecorder // the edge ring, then the feature ring
			c := cfg
			c.WrapRing = func(r uring.Ring, _ int) (uring.Ring, error) {
				rec := &prepRecorder{Ring: r}
				rings = append(rings, rec)
				return rec, nil
			}
			s, err := New(direct, c, be)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.NewWorker(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			got, err := w.SampleBatchOpts(targets, BatchOpts{Seed: c.Seed})
			if err != nil {
				t.Fatal(err)
			}
			assertBatchesEqual(t, ref, got, string(be))
			if !slices.Equal(got.Features, ref.Features) {
				t.Fatal("O_DIRECT feature payload differs from the buffered one")
			}
			if len(w.arena) != DefaultArenaBytes || len(rings) != 2 {
				t.Fatalf("%d-byte arena over %d rings, want %d bytes over the edge and feature rings",
					len(w.arena), len(rings), DefaultArenaBytes)
			}
			for i, name := range []string{"edge", "feature"} {
				inArena := 0
				for _, buf := range rings[i].bufs {
					if within(w.arena, buf) {
						inArena++
					} else if len(buf) <= chunk {
						t.Fatalf("%s ring: a %d-byte window outside the arena", name, len(buf))
					}
				}
				if inArena == 0 {
					t.Fatalf("%s ring: none of %d windows in the arena", name, len(rings[i].bufs))
				}
			}
		})
	}
}

// TestConfigRejectsNegativeKnobs: a negative cache budget is refused
// by name, never read as "off".
func TestConfigRejectsNegativeKnobs(t *testing.T) {
	ds := testDataset(t)
	for _, c := range []struct {
		name string
		set  func(*Config)
	}{
		{"cache budget", func(c *Config) { c.CacheBudgetBytes = -1 }},
		{"feature cache budget", func(c *Config) { c.FeatureCacheBudgetBytes = -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.set(&cfg)
			if _, err := New(ds, cfg, uring.BackendSim); err == nil || !strings.Contains(err.Error(), c.name) {
				t.Fatalf("negative %s: err = %v", c.name, err)
			}
		})
	}
}
