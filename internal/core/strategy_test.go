package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ringsampler/internal/sample"
	"ringsampler/internal/uring"
)

// TestStrategyCrossBackendConformance extends the conformance matrix
// with the strategy axis: for every strategy, one fixed plan must
// yield byte-identical batches through sim, pool, fault-wrapped and
// cache-enabled variants, and real io_uring when available. The
// uniform row doubles as the refactor gate — its reference is also
// checked against the engine's digest elsewhere, so a Strategy
// extraction that moved a single byte would fail here first.
func TestStrategyCrossBackendConformance(t *testing.T) {
	ds := testDataset(t)
	targets := testTargets(ds, 128)
	nasty := uring.FaultPlan{Seed: 200, ShortReadRate: 0.2, TransientRate: 0.1, RejectRate: 0.15, DelayRate: 0.25, MaxDelay: 5}

	for _, strat := range StrategyNames() {
		t.Run(strat, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = 42
			cfg.RingSize = 32
			cfg.Strategy = strat
			ref := sampleOnce(t, ds, cfg, uring.BackendSim, targets)
			if ref.TotalSampled() == 0 {
				t.Fatalf("strategy %s sampled nothing", strat)
			}

			type confCase struct {
				name    string
				backend uring.Backend
				wrap    func(uring.Ring, int) (uring.Ring, error)
				cache   int64
			}
			cases := []confCase{
				{"pool", uring.BackendPool, nil, 0},
				{"fault-pool-nasty", uring.BackendPool, faultWrap(nasty), 0},
				{"cache-pool", uring.BackendPool, nil, 48 << 10},
				{"cache-fault-sim-nasty", uring.BackendSim, faultWrap(nasty), 48 << 10},
			}
			if uring.Probe().Ring {
				cases = append(cases, confCase{"io_uring", uring.BackendIOURing, nil, 0})
			}
			for _, c := range cases {
				cc := cfg
				cc.WrapRing = c.wrap
				cc.CacheBudgetBytes = c.cache
				got := sampleOnce(t, ds, cc, c.backend, targets)
				assertBatchesEqual(t, ref, got, strat+"/"+c.name)
			}
		})
	}
}

// TestStrategyThreadInvariance is the determinism contract on the
// strategy axis: every strategy's per-batch epoch digest stream must
// be bit-identical at Threads = 1, 2 and 4, because each batch reseeds
// from Mix(seed, batchIndex) regardless of which worker runs it.
// check.sh and CI run this (with the uniform invariance suite) before
// everything else so a strategy that sneaks worker-local state into
// its draws fails loudly and early.
func TestStrategyThreadInvariance(t *testing.T) {
	ds := testDataset(t)
	targets := testTargets(ds, 300)
	for _, strat := range StrategyNames() {
		t.Run(strat, func(t *testing.T) {
			var ref []uint64
			for _, th := range []int{1, 2, 4} {
				cfg := DefaultConfig()
				cfg.Seed = 13
				cfg.BatchSize = 32
				cfg.Threads = th
				cfg.Strategy = strat
				s, err := New(ds, cfg, uring.BackendPool)
				if err != nil {
					t.Fatal(err)
				}
				st, err := runEpoch(s, targets, nil)
				if err != nil {
					t.Fatalf("Threads=%d: %v", th, err)
				}
				if st.Sampled == 0 {
					t.Fatalf("Threads=%d: epoch sampled nothing", th)
				}
				if ref == nil {
					ref = st.Digests
				} else if !slices.Equal(ref, st.Digests) {
					t.Fatalf("Threads=%d: digests diverge from Threads=1", th)
				}
			}
		})
	}
}

// TestStrategyBatchOptsOverride: BatchOpts.Strategy overrides the
// sampler-level default per batch — a uniform-configured sampler asked
// for a walk batch must produce exactly what a walk-configured sampler
// produces from the same seed, and the next (non-override) batch must
// be plain uniform again.
func TestStrategyBatchOptsOverride(t *testing.T) {
	ds := testDataset(t)
	targets := testTargets(ds, 64)
	cfg := DefaultConfig()
	cfg.Seed = 9
	s, err := New(ds, cfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const seed = 555
	got, err := w.SampleBatchOpts(targets, BatchOpts{Fanouts: cfg.Fanouts, Seed: seed, Strategy: StrategyWalk})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := cfg
	wcfg.Strategy = StrategyWalk
	ws, err := New(ds, wcfg, uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	ww, err := ws.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ww.Close()
	want, err := ww.SampleBatchOpts(targets, BatchOpts{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	assertBatchesEqual(t, want, got, "walk-override/walk-config")

	// The override is per batch, not sticky.
	after, err := w.SampleBatchOpts(targets, BatchOpts{Fanouts: cfg.Fanouts, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := w.SampleBatchOpts(targets, BatchOpts{Fanouts: cfg.Fanouts, Seed: seed, Strategy: StrategyUniform})
	if err != nil {
		t.Fatal(err)
	}
	assertBatchesEqual(t, uni, after, "post-override/uniform")
	if after.Digest() == got.Digest() {
		t.Fatal("walk override leaked into the following uniform batch")
	}

	if _, err := w.SampleBatchOpts(targets, BatchOpts{Fanouts: cfg.Fanouts, Seed: seed, Strategy: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown per-batch strategy: err = %v, want error naming it", err)
	}
}

// TestConfigRejectsUnknownStrategy: validation satellite for the new
// knob — the error must name the known strategies.
func TestConfigRejectsUnknownStrategy(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Strategy = "stratified"
	_, err := New(ds, cfg, uring.BackendSim)
	if err == nil {
		t.Fatal("unknown Config.Strategy accepted")
	}
	if !strings.Contains(err.Error(), "stratified") || !strings.Contains(err.Error(), StrategyWeighted) {
		t.Fatalf("error %q names neither the bad strategy nor the known ones", err)
	}
	if !ValidStrategy("") || !ValidStrategy(StrategyWalk) || ValidStrategy("stratified") {
		t.Fatal("ValidStrategy disagrees with the registry")
	}
}

// TestWalkShape pins the walk strategy's structural contract: each
// layer draws exactly one hop per frontier node (zero-degree nodes
// terminate their walk), and the next frontier is the raw hop set —
// layer l+1's targets equal layer l's neighbors verbatim, duplicates
// and all, so colliding walks keep independent continuations.
func TestWalkShape(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Strategy = StrategyWalk
	cfg.Fanouts = []int{20, 15, 10} // values ignored: one hop per node per layer
	targets := testTargets(ds, 128)
	b := sampleOnce(t, ds, cfg, uring.BackendPool, targets)
	if len(b.Layers) != len(cfg.Fanouts) {
		t.Fatalf("walk produced %d layers, want %d", len(b.Layers), len(cfg.Fanouts))
	}
	for li := range b.Layers {
		l := &b.Layers[li]
		if len(l.Neighbors) > len(l.Targets) {
			t.Fatalf("layer %d drew %d hops for %d walkers — more than one hop per node", li, len(l.Neighbors), len(l.Targets))
		}
		for i := range l.Targets {
			if picks := l.Starts[i+1] - l.Starts[i]; picks > 1 {
				t.Fatalf("layer %d node %d drew %d hops, want ≤ 1", li, i, picks)
			}
		}
		if li > 0 {
			prev := b.Layers[li-1].Neighbors
			if !slices.Equal(l.Targets, prev) {
				t.Fatalf("layer %d targets are not layer %d's raw hop set — walk multiplicity lost", li, li-1)
			}
		}
	}
	// The workload must actually produce colliding walks for the
	// multiplicity check above to mean anything.
	deepest := b.Layers[len(b.Layers)-1].Targets
	uniq := sample.SortDedup(append([]uint32(nil), deepest...))
	if len(uniq) == len(deepest) {
		t.Log("no walk collisions in the deepest layer — multiplicity untested on this workload")
	}
}

// TestWeightedDiverges: the weighted strategy must actually bias the
// draws — same plan, different digests than uniform — while drawing
// from the same sample space (only true neighbors, which
// assertBatchesEqual-style shape checks and the engine's offset reads
// already enforce).
func TestWeightedDiverges(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Seed = 42
	targets := testTargets(ds, 128)
	uni := sampleOnce(t, ds, cfg, uring.BackendPool, targets)
	wcfg := cfg
	wcfg.Strategy = StrategyWeighted
	wtd := sampleOnce(t, ds, wcfg, uring.BackendPool, targets)
	if uni.Digest() == wtd.Digest() {
		t.Fatal("weighted batch is byte-identical to uniform — the alias path never ran")
	}
	if wtd.TotalSampled() == 0 {
		t.Fatal("weighted batch sampled nothing")
	}
}

// TestBuildAliasSet checks the weighted strategy's memory rule on a
// real generated graph: tables exist, the tabled set is exactly the
// deterministic first-fit selection over the degree-first order,
// charges stay within the node-proportional budget, and every slot is
// a valid probability/alias pair.
func TestBuildAliasSet(t *testing.T) {
	ds := testDataset(t)
	set, err := buildAliasSet(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.tables) == 0 {
		t.Fatal("alias build tabled nothing on a 30k-edge graph")
	}
	budget := int64(aliasBytesPerNode) * ds.NumNodes()
	charged := set.bytes + int64(len(set.tables))*aliasNodeOverheadBytes
	if charged > budget {
		t.Fatalf("alias tables charge %d bytes, budget is %d", charged, budget)
	}
	for v := range set.tables {
		st, en := ds.Range(v)
		deg := en - st
		if deg <= 1 {
			t.Fatalf("node %d tabled with degree %d — tables only pay off above degree 1", v, deg)
		}
		tab := set.tables[v]
		if int64(len(tab.prob)) != deg || int64(len(tab.alias)) != deg {
			t.Fatalf("node %d: table size %d/%d, want %d", v, len(tab.prob), len(tab.alias), deg)
		}
		for i := range tab.prob {
			if tab.prob[i] < 0 || tab.prob[i] > 1 {
				t.Fatalf("node %d slot %d: prob %v outside [0,1]", v, i, tab.prob[i])
			}
			if tab.alias[i] < 0 || int64(tab.alias[i]) >= deg {
				t.Fatalf("node %d slot %d: alias %d outside [0,%d)", v, i, tab.alias[i], deg)
			}
		}
	}
	// The tabled set must be exactly the documented selection:
	// degree-first (ties by ascending id), first-fit against the
	// node-proportional budget, candidates of degree ≤ 1 excluded. The
	// test graph's biggest hub outweighs the entire budget, so this also
	// proves a misfit is skipped rather than ending selection.
	type cand struct {
		id  uint32
		deg int64
	}
	var cands []cand
	for v := int64(0); v < ds.NumNodes(); v++ {
		st, en := ds.Range(uint32(v))
		if deg := en - st; deg > 1 {
			cands = append(cands, cand{uint32(v), deg})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if a.deg != b.deg {
			if a.deg > b.deg {
				return -1
			}
			return 1
		}
		if a.id < b.id {
			return -1
		}
		return 1
	})
	var used int64
	want := make(map[uint32]bool)
	skippedMisfit := false
	for _, c := range cands {
		cost := c.deg*aliasSlotBytes + aliasNodeOverheadBytes
		if used+cost > budget {
			skippedMisfit = true
			continue
		}
		used += cost
		want[c.id] = true
	}
	if !skippedMisfit {
		t.Fatal("test graph has no over-budget hub — the first-fit skip path went unexercised")
	}
	if len(want) != len(set.tables) {
		t.Fatalf("tabled %d nodes, first-fit reference selects %d", len(set.tables), len(want))
	}
	for v := range set.tables {
		if !want[v] {
			t.Fatalf("node %d tabled but not in the first-fit reference selection", v)
		}
	}

	// A second build must be identical — the tabled set and every slot
	// are a pure function of the dataset (weighted determinism hinges
	// on this).
	again, err := buildAliasSet(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.tables) != len(set.tables) || again.bytes != set.bytes {
		t.Fatalf("rebuild disagrees: %d/%d tables, %d/%d bytes", len(again.tables), len(set.tables), again.bytes, set.bytes)
	}
	for v, tab := range set.tables {
		tab2, ok := again.tables[v]
		if !ok || !slices.Equal(tab.prob, tab2.prob) || !slices.Equal(tab.alias, tab2.alias) {
			t.Fatalf("rebuild disagrees on node %d's table", v)
		}
	}
}

// TestBuildAliasDistribution: drawing through a Vose table must
// reproduce the weights empirically — 3:2:1 weights over 60k draws
// land within 2% of their expected shares.
func TestBuildAliasDistribution(t *testing.T) {
	weights := []float64{3, 2, 1}
	tab := buildAlias(weights)
	rng := sample.NewRNG(77)
	const draws = 60_000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		idx := rng.Intn(len(weights))
		if rng.Float64() >= tab.prob[idx] {
			idx = int(tab.alias[idx])
		}
		counts[idx]++
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	for i, w := range weights {
		got := float64(counts[i]) / draws
		want := w / sum
		if got < want-0.02 || got > want+0.02 {
			t.Fatalf("slot %d drawn with frequency %.4f, want %.4f ± 0.02", i, got, want)
		}
	}
}

// countingStrategy counts the frontiers built by the strategy it wraps.
type countingStrategy struct {
	Strategy
	frontiers int
}

func (c *countingStrategy) NextFrontier(l *Layer, dst []uint32, scratch *[]uint32) []uint32 {
	c.frontiers++
	return c.Strategy.NextFrontier(l, dst, scratch)
}

// TestFrontierBuiltBetweenLayersOnly: a batch of n layers builds n−1
// frontiers. The last layer's sampled set feeds no further layer, and
// the feature stage builds its own node union, so a frontier after it
// is a sort+dedup of the largest layer for nothing.
func TestFrontierBuiltBetweenLayersOnly(t *testing.T) {
	ds := testDataset(t)
	targets := testTargets(ds, 64)
	for _, fanouts := range [][]int{{7}, {5, 3}, DefaultFanouts} {
		t.Run(fmt.Sprintf("layers=%d", len(fanouts)), func(t *testing.T) {
			s, err := New(ds, DefaultConfig(), uring.BackendSim)
			if err != nil {
				t.Fatal(err)
			}
			cs := &countingStrategy{Strategy: s.defStrat}
			s.defStrat = cs
			w, err := s.NewWorker(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			for seed := range uint64(3) {
				before := cs.frontiers
				if _, err := w.SampleBatchOpts(targets, BatchOpts{Fanouts: fanouts, Seed: seed}); err != nil {
					t.Fatal(err)
				}
				if got := cs.frontiers - before; got != len(fanouts)-1 {
					t.Fatalf("fanouts %v: %d frontiers built for one batch, want %d", fanouts, got, len(fanouts)-1)
				}
			}
		})
	}
}
