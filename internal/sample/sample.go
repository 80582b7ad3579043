// Package sample provides the seeded sampling primitives shared by the
// RingSampler engine and the modeled systems: a fast xorshift RNG,
// Floyd's without-replacement fanout selection, and the sort+dedup used
// to build between-layer frontiers (paper §2.1, Fig 1).
//
// Everything here is deterministic for a fixed seed, which is what lets
// tests assert bit-identical sample sets and lets the modeled
// experiments reproduce exactly.
package sample

import (
	"math"
	"math/bits"
	"slices"
)

// RNG is a seeded xorshift64* generator. The zero value is not usable;
// construct with NewRNG. It is deliberately a value type so workers can
// embed private copies with no sharing.
type RNG struct {
	state uint64
}

// NewRNG returns a generator for the given seed. A zero seed is
// remapped to a fixed non-zero constant (xorshift has an absorbing
// zero state).
func NewRNG(seed uint64) RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return RNG{state: seed}
}

// Reseed resets the generator to the state NewRNG(seed) would produce,
// discarding any consumed stream. The epoch runner reseeds a worker's
// RNG from Mix(seed, batchIndex) before every mini-batch so the drawn
// samples depend only on the batch index, never on which worker (or
// how many workers) happened to run it.
func (r *RNG) Reseed(seed uint64) { *r = NewRNG(seed) }

// State returns the generator's raw internal state. Together with
// Restore it lets one logical draw stream be threaded across process
// boundaries: the shard router captures the state after each sampled
// layer and replays it into every shard participating in the next, so
// N shards consume bit-identical streams to a single-node run.
func (r *RNG) State() uint64 { return r.state }

// Restore sets the generator to a state previously captured with
// State. A zero state (never produced by a healthy generator, but
// possible from a corrupt wire value) is remapped like NewRNG's zero
// seed rather than absorbing the stream.
func (r *RNG) Restore(state uint64) {
	if state == 0 {
		state = 0x9e3779b97f4a7c15
	}
	r.state = state
}

// Mix combines a seed with a stream index (batch number, thread id,
// request id ...) into an independent-looking seed, splitmix64-style.
func Mix(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next returns the next 64 random bits.
func (r *RNG) Next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform int in [0, n). n must be > 0. Uses the
// fixed-point multiply reduction (no modulo bias worth caring about at
// graph scales, no division).
func (r *RNG) Intn(n int) int {
	hi, _ := bits.Mul64(r.Next(), uint64(n))
	return int(hi)
}

// Uint32n returns a uniform uint32 in [0, n). n must be > 0.
func (r *RNG) Uint32n(n uint32) uint32 {
	hi, _ := bits.Mul64(r.Next(), uint64(n))
	return uint32(hi)
}

// Uint64n returns a uniform uint64 in [0, n). n must be > 0. For n
// that fits a uint32 this consumes the same single Next() and returns
// the same value as Uint32n — callers indexing node IDs can adopt it
// without perturbing any existing seeded stream.
func (r *RNG) Uint64n(n uint64) uint64 {
	hi, _ := bits.Mul64(r.Next(), n)
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Floyd appends k distinct integers drawn uniformly from [0, n) to out
// and returns the extended slice, using Floyd's sampling algorithm
// (O(k) draws, no allocation beyond out). If k >= n it appends all of
// [0, n). The appended order is Floyd's insertion order, which is
// deterministic for a fixed RNG state; callers that need sorted
// indices sort the suffix themselves.
//
// Duplicate detection scans the appended suffix linearly while k is
// small (fanouts default to at most 20, where the scan beats a map by
// a wide margin) and switches to a set above floydScanThreshold so
// large fanouts cost O(k) instead of O(k²). Both paths make identical
// accept/replace decisions on an identical RNG stream, so the appended
// values — and every digest derived from them — do not depend on which
// path ran.
func Floyd(r *RNG, n, k int, out []int) []int {
	if n <= 0 || k <= 0 {
		return out
	}
	if k >= n {
		for i := 0; i < n; i++ {
			out = append(out, i)
		}
		return out
	}
	var seen map[int]struct{}
	if k > floydScanThreshold {
		seen = make(map[int]struct{}, k)
	}
	base := len(out)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		dup := false
		if seen != nil {
			_, dup = seen[t]
		} else {
			for _, v := range out[base:] {
				if v == t {
					dup = true
					break
				}
			}
		}
		if dup {
			t = j
		}
		out = append(out, t)
		if seen != nil {
			seen[t] = struct{}{}
		}
	}
	return out
}

// floydScanThreshold is the fanout size above which Floyd trades the
// linear duplicate scan for a set. The crossover sits well above the
// paper's default fanouts, so the common path stays allocation-free.
const floydScanThreshold = 64

// SortDedup sorts xs ascending and removes duplicates in place,
// returning the shortened slice. This is the between-layer frontier
// build of paper §2.1: sampled neighbors of layer l become the unique
// target set of layer l+1. It allocates a scratch of len(xs) above the
// radix crossover; hot paths pass their own to SortDedupScratch.
func SortDedup(xs []uint32) []uint32 {
	var scratch []uint32
	return SortDedupScratch(xs, &scratch)
}

const (
	// radixBits splits a uint32 key into three LSD digits of 11, 11 and
	// 10 bits: three scatter passes, histograms that fit L1 together.
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1

	// radixMinLen is the crossover below which the comparison sort wins:
	// the radix path pays ~3 µs of histogram clearing and prefix sums
	// however short the input (measured on node ids under 1M: pdqsort
	// 5x ahead at 64 elements, level at 384-512, radix 1.6x ahead at 1k,
	// 8x at 8k-64k).
	radixMinLen = 512
)

// SortDedupScratch is SortDedup with caller-owned scratch, grown to
// len(xs) and kept for the next call, so a worker's steady state
// allocates nothing. Above radixMinLen it is a least-significant-digit
// radix sort — one pass over xs fills all three digit histograms, each
// scatter pass ping-pongs between xs and the scratch, a digit on which
// every key agrees (the top one, for any graph under 4M nodes) costs no
// pass — followed by one compaction pass that lands the unique keys
// back in xs. The result is exactly slices.Sort + slices.Compact's.
func SortDedupScratch(xs []uint32, scratch *[]uint32) []uint32 {
	n := len(xs)
	if n < radixMinLen || uint64(n) > math.MaxUint32 {
		slices.Sort(xs)
		return slices.Compact(xs)
	}
	if cap(*scratch) < n {
		*scratch = make([]uint32, n)
	}
	var hist [3][radixBuckets]uint32
	for _, v := range xs {
		hist[0][v&radixMask]++
		hist[1][(v>>radixBits)&radixMask]++
		hist[2][v>>(2*radixBits)]++
	}
	src, dst := xs, (*scratch)[:n]
	for d := 0; d < 3; d++ {
		h := &hist[d]
		shift := uint(d * radixBits)
		if h[(src[0]>>shift)&radixMask] == uint32(n) {
			continue
		}
		var sum uint32
		for b := range h {
			c := h[b]
			h[b] = sum
			sum += c
		}
		for _, v := range src {
			b := (v >> shift) & radixMask
			dst[h[b]] = v
			h[b]++
		}
		src, dst = dst, src
	}
	// Compact src (sorted; xs itself or the scratch) into xs. In place
	// this is slices.Compact's own loop: the write index never passes
	// the read index.
	w := 1
	xs[0] = src[0]
	for _, v := range src[1:] {
		if v != xs[w-1] {
			xs[w] = v
			w++
		}
	}
	return xs[:w]
}
