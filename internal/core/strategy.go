package core

import (
	"fmt"
	"sort"

	"ringsampler/internal/sample"
)

// Strategy names accepted by Config.Strategy, BatchOpts.Strategy, the
// serve request body's "strategy" field, and cmd/epoch -strategy. The
// empty string selects StrategyUniform.
const (
	StrategyUniform  = "uniform"
	StrategyWeighted = "weighted"
	StrategyWalk     = "walk"
)

// StrategyNames lists every known strategy, in documentation order.
func StrategyNames() []string {
	return []string{StrategyUniform, StrategyWeighted, StrategyWalk}
}

// ValidStrategy reports whether name names a known sampling strategy.
// The empty string is valid and selects uniform — front ends use this
// to reject unknown names before any work is queued.
func ValidStrategy(name string) bool {
	switch name {
	case "", StrategyUniform, StrategyWeighted, StrategyWalk:
		return true
	}
	return false
}

// Strategy is the pluggable draw stage of the sampling loop (DESIGN.md
// §11): which neighbor-list indices a frontier node contributes, and
// how a layer's sampled neighbors become the next layer's frontier.
// Everything below the draw — run coalescing, the ring pipeline,
// caching, retry/quarantine — is strategy-agnostic, so every strategy
// rides the same I/O path.
//
// Contract: Draw appends exactly its picks for one node and consumes
// the worker RNG only through the rng argument; with per-batch
// Mix(seed, batchIndex) reseeding that makes every strategy's output a
// pure function of (dataset, config, targets, seed) — seed- and
// thread-count-invariant like the uniform baseline. Draw must append
// indices in ascending order (the run planner coalesces adjacent
// picks; an unsorted draw would break the buffer-position invariant).
// Implementations must be safe for concurrent use by multiple workers.
type Strategy interface {
	// Name returns the strategy's registry name.
	Name() string
	// LayerFanout maps the configured fanout of layer `layer` to the
	// number of draws per frontier node (before the degree clamp).
	LayerFanout(layer, fanout int) int
	// Draw appends k neighbor-list indices in [0, deg) for node v to
	// out, ascending, and returns the extended slice. k is already
	// clamped to deg by the caller; deg is always > 0.
	Draw(rng *sample.RNG, v uint32, deg, k int, out []int) []int
	// NextFrontier builds the next layer's target set from l's sampled
	// neighbors into dst[:0] and returns it. l is fully built and must
	// not be modified. scratch is the caller's reusable sort workspace
	// (sample.SortDedupScratch); strategies that do not sort ignore it.
	NextFrontier(l *Layer, dst []uint32, scratch *[]uint32) []uint32
}

// uniformStrategy is today's paper-default draw: Floyd's
// without-replacement selection of k of the node's deg entries, sorted
// ascending, with sort+dedup frontier building (paper §2.1). Its RNG
// consumption and output are byte-identical to the pre-Strategy
// engine, which is what keeps every existing digest stable.
type uniformStrategy struct{}

func (uniformStrategy) Name() string                  { return StrategyUniform }
func (uniformStrategy) LayerFanout(_, fanout int) int { return fanout }

func (uniformStrategy) Draw(rng *sample.RNG, _ uint32, deg, k int, out []int) []int {
	base := len(out)
	out = sample.Floyd(rng, deg, k, out)
	sort.Ints(out[base:])
	return out
}

func (uniformStrategy) NextFrontier(l *Layer, dst []uint32, scratch *[]uint32) []uint32 {
	dst = append(dst[:0], l.Neighbors...)
	return sample.SortDedupScratch(dst, scratch)
}

// walkStrategy samples fixed-length random walks (Het
// RandomWalkSampler-style): every layer draws exactly one uniform next
// hop per frontier node, and the frontier is the raw hop set — no
// dedup, so each walk keeps its own continuation even when walks
// collide on a node. The walk length is the number of configured
// fanout layers; the fanout values themselves are ignored. Zero-degree
// nodes contribute no hop, terminating their walk naturally.
type walkStrategy struct{}

func (walkStrategy) Name() string             { return StrategyWalk }
func (walkStrategy) LayerFanout(_, _ int) int { return 1 }

func (walkStrategy) Draw(rng *sample.RNG, _ uint32, deg, _ int, out []int) []int {
	return append(out, rng.Intn(deg))
}

func (walkStrategy) NextFrontier(l *Layer, dst []uint32, _ *[]uint32) []uint32 {
	return append(dst[:0], l.Neighbors...)
}

// weightedStrategy draws neighbors with replacement, biased by
// neighbor degree (Dist-GNN probs-style importance sampling): entry i
// of node v's list is picked proportionally to deg(list[i])+1. Hub
// nodes carry a precomputed alias table; the long tail falls back to
// uniform draws (see buildAliasSet for the memory rule). The frontier
// build is the uniform sort+dedup.
type weightedStrategy struct {
	tables *aliasSet
}

func (weightedStrategy) Name() string                  { return StrategyWeighted }
func (weightedStrategy) LayerFanout(_, fanout int) int { return fanout }

func (s weightedStrategy) Draw(rng *sample.RNG, v uint32, deg, k int, out []int) []int {
	base := len(out)
	if t, ok := s.tables.lookup(v); ok {
		for i := 0; i < k; i++ {
			idx := rng.Intn(deg)
			if rng.Float64() >= t.prob[idx] {
				idx = int(t.alias[idx])
			}
			out = append(out, idx)
		}
	} else if s.tables.isPhantom(v) {
		// Shard mode: v is tabled on its owning shard, so consume the
		// same two variates per pick to keep the chunk stream aligned;
		// the placeholder picks are never read (the node is non-owned,
		// its span is zero-filled and overlaid by the router).
		for i := 0; i < k; i++ {
			rng.Intn(deg)
			rng.Float64()
			out = append(out, 0)
		}
	} else {
		// Untabled (tail) nodes: their neighbors' degrees are
		// near-uniform on skewed graphs, so a uniform draw is the
		// documented approximation — and it keeps memory node-
		// proportional instead of edge-proportional.
		for i := 0; i < k; i++ {
			out = append(out, rng.Intn(deg))
		}
	}
	sort.Ints(out[base:])
	return out
}

func (weightedStrategy) NextFrontier(l *Layer, dst []uint32, scratch *[]uint32) []uint32 {
	dst = append(dst[:0], l.Neighbors...)
	return sample.SortDedupScratch(dst, scratch)
}

// strategyFor resolves a strategy name for one batch: the sampler's
// pre-resolved default for "" or the configured name, a lazily built
// (and cached) strategy otherwise. Weighted construction reads the
// edge file, so per-name results are memoized under a lock; the hit
// path after first use is one map lookup.
func (s *Sampler) strategyFor(name string) (Strategy, error) {
	if name == "" {
		name = s.cfg.Strategy
	}
	if name == "" || (s.defStrat != nil && name == s.defStrat.Name()) {
		return s.defStrat, nil
	}
	s.stratMu.Lock()
	defer s.stratMu.Unlock()
	if st, ok := s.strats[name]; ok {
		return st, nil
	}
	st, err := s.buildStrategy(name)
	if err != nil {
		return nil, err
	}
	if s.strats == nil {
		s.strats = make(map[string]Strategy)
	}
	s.strats[name] = st
	return st, nil
}

// buildStrategy constructs one strategy by name. The weighted build is
// the only expensive case: it scans the offset index and reads hub
// neighbor lists to assemble alias tables.
func (s *Sampler) buildStrategy(name string) (Strategy, error) {
	switch name {
	case "", StrategyUniform:
		return uniformStrategy{}, nil
	case StrategyWalk:
		return walkStrategy{}, nil
	case StrategyWeighted:
		tables, err := buildAliasSet(s.ds)
		if err != nil {
			return nil, fmt.Errorf("core: build weighted alias tables: %w", err)
		}
		return weightedStrategy{tables: tables}, nil
	default:
		return nil, fmt.Errorf("core: unknown sampling strategy %q (known: %v)", name, StrategyNames())
	}
}
