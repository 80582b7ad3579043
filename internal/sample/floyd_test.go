package sample

import (
	"math"
	"slices"
	"testing"
)

// floydLinearRef is the pre-threshold reference implementation: the
// same Floyd loop with the duplicate scan always linear. The fast path
// must match it byte for byte at every size, which pins the map-based
// detection to identical accept/replace decisions.
func floydLinearRef(r *RNG, n, k int, out []int) []int {
	if n <= 0 || k <= 0 {
		return out
	}
	if k >= n {
		for i := 0; i < n; i++ {
			out = append(out, i)
		}
		return out
	}
	base := len(out)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		dup := false
		for _, v := range out[base:] {
			if v == t {
				dup = true
				break
			}
		}
		if dup {
			t = j
		}
		out = append(out, t)
	}
	return out
}

// TestFloydMatchesLinearReference: random (n, k, seed) triples spanning
// the floydScanThreshold crossover — the shipped Floyd and the linear
// reference must agree exactly, so switching duplicate detection never
// moves a digest.
func TestFloydMatchesLinearReference(t *testing.T) {
	meta := NewRNG(0xf107d)
	for trial := 0; trial < 300; trial++ {
		n := 1 + int(meta.Uint32n(4000))
		k := 1 + int(meta.Uint32n(uint32(2*floydScanThreshold)))
		seed := meta.Next()
		r1 := NewRNG(seed)
		r2 := NewRNG(seed)
		got := Floyd(&r1, n, k, nil)
		want := floydLinearRef(&r2, n, k, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d k=%d seed=%#x): Floyd diverges from linear reference\ngot  %v\nwant %v",
				trial, n, k, seed, got, want)
		}
		if r1.Next() != r2.Next() {
			t.Fatalf("trial %d (n=%d k=%d): RNG consumption differs between paths", trial, n, k)
		}
	}
	// Pin both sides of the crossover explicitly.
	for _, k := range []int{floydScanThreshold, floydScanThreshold + 1} {
		r1, r2 := NewRNG(7), NewRNG(7)
		if !slices.Equal(Floyd(&r1, 500, k, nil), floydLinearRef(&r2, 500, k, nil)) {
			t.Fatalf("k=%d: crossover boundary diverges", k)
		}
	}
}

// TestFloydLargeFanoutProperties: the map path keeps the without-
// replacement guarantees — distinct in-range picks, and full coverage
// of [0, n) when k ≥ n.
func TestFloydLargeFanoutProperties(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := NewRNG(seed)
		n, k := 1000, 3*floydScanThreshold
		got := Floyd(&r, n, k, nil)
		if len(got) != k {
			t.Fatalf("seed %d: got %d picks, want %d", seed, len(got), k)
		}
		seen := make(map[int]bool, k)
		for _, v := range got {
			if v < 0 || v >= n {
				t.Fatalf("seed %d: pick %d out of range", seed, v)
			}
			if seen[v] {
				t.Fatalf("seed %d: pick %d repeated", seed, v)
			}
			seen[v] = true
		}
	}
	// k ≥ n appends all of [0, n) in order, regardless of threshold.
	r := NewRNG(9)
	n := floydScanThreshold + 10
	got := Floyd(&r, n, n+5, nil)
	if len(got) != n {
		t.Fatalf("k>n: got %d picks, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("k>n: position %d holds %d, want identity", i, v)
		}
	}
}

// TestFloydSuffixOnlyMutation: Floyd appends — a pre-existing prefix is
// never read for duplicate detection nor modified, which is what lets
// the worker reuse one scratch slice across nodes.
func TestFloydSuffixOnlyMutation(t *testing.T) {
	for _, k := range []int{3, floydScanThreshold + 8} {
		// A prefix full of every value Floyd could draw: if the dup scan
		// looked at it, every draw would collide and degenerate to the
		// j-sequence; if Floyd wrote to it, the copy check fails.
		prefix := make([]int, 50)
		for i := range prefix {
			prefix[i] = i % 10
		}
		saved := slices.Clone(prefix)
		r1 := NewRNG(11)
		out := Floyd(&r1, 200, k, slices.Clone(prefix))
		if !slices.Equal(out[:len(prefix)], saved) {
			t.Fatalf("k=%d: Floyd mutated the prefix", k)
		}
		r2 := NewRNG(11)
		fresh := Floyd(&r2, 200, k, nil)
		if !slices.Equal(out[len(prefix):], fresh) {
			t.Fatalf("k=%d: suffix depends on the pre-existing prefix\ngot  %v\nwant %v",
				k, out[len(prefix):], fresh)
		}
	}
}

// TestSortDedupProperties: random multisets in, sorted unique sets out,
// with exactly the input's distinct values.
func TestSortDedupProperties(t *testing.T) {
	meta := NewRNG(0x5d)
	for trial := 0; trial < 200; trial++ {
		n := int(meta.Uint32n(300))
		in := make([]uint32, n)
		distinct := make(map[uint32]bool, n)
		for i := range in {
			in[i] = meta.Uint32n(64) // small domain forces duplicates
			distinct[in[i]] = true
		}
		got := SortDedup(slices.Clone(in))
		if len(got) != len(distinct) {
			t.Fatalf("trial %d: %d values out, want %d distinct", trial, len(got), len(distinct))
		}
		for i, v := range got {
			if !distinct[v] {
				t.Fatalf("trial %d: output value %d not in input", trial, v)
			}
			if i > 0 && got[i-1] >= v {
				t.Fatalf("trial %d: output not strictly ascending at %d", trial, i)
			}
		}
	}
}

// TestUint64nMatchesUint32n pins the adoption guarantee the experiment
// helpers rely on: for any bound that fits a uint32, Uint64n consumes
// the same single draw and returns the same value as Uint32n.
func TestUint64nMatchesUint32n(t *testing.T) {
	a, b := NewRNG(31), NewRNG(31)
	for i := 0; i < 1000; i++ {
		n := uint32(1 + i*37)
		x := a.Uint32n(n)
		y := b.Uint64n(uint64(n))
		if uint64(x) != y {
			t.Fatalf("draw %d: Uint32n(%d) = %d but Uint64n = %d", i, n, x, y)
		}
	}
	if a.Next() != b.Next() {
		t.Fatal("Uint64n consumed a different stream length than Uint32n")
	}
	// And the 64-bit range actually works past the 32-bit boundary.
	r := NewRNG(5)
	sawHigh := false
	for i := 0; i < 1000; i++ {
		v := r.Uint64n(1 << 40)
		if v >= 1<<40 {
			t.Fatalf("Uint64n(2^40) = %d out of range", v)
		}
		if v > 1<<32 {
			sawHigh = true
		}
	}
	if !sawHigh {
		t.Fatal("Uint64n(2^40) never exceeded 2^32 in 1000 draws — high bits lost")
	}
}

// chiSquareCritical returns the p = 0.001 upper critical value of the
// chi-square distribution with dof degrees of freedom, by the
// Wilson–Hilferty cube approximation (within 3 % of the exact value at
// dof = 1, where it errs high, and closer above).
func chiSquareCritical(dof int) float64 {
	const z = 3.090232306167813 // standard normal quantile at 0.999
	v := float64(dof)
	c := 1 - 2/(9*v) + z*math.Sqrt(2/(9*v))
	return v * c * c * c
}

// TestFloydUniformChiSquare: Floyd's draw is what the engine claims, a
// uniform k-subset of [0, n). Under a fixed seed, each shape draws at
// least 10⁶ indices, and every index's inclusion count must pass a
// chi-square test at p = 0.001. Inclusion counts of a uniform k-subset
// have variance T·p(1−p) each and sum to T·k, so the statistic
// Σ (Oᵢ − T·k/n)² / (T·k(n−k)/(n(n−1))) is chi-square with n − 1
// degrees of freedom; at k = 1 it is Pearson's on the counts, at
// k = n − 1 Pearson's on the exclusions. The shapes cover a single
// pick, all but one, the paper's fanout over a 1,000-entry list, and
// a fanout past floydScanThreshold, where duplicates are found by set.
func TestFloydUniformChiSquare(t *testing.T) {
	rng := NewRNG(0xc41)
	for _, sh := range []struct{ n, k int }{
		{2, 1}, {10, 1}, {10, 9}, {37, 5}, {1000, 20}, {200, 2 * floydScanThreshold},
	} {
		trials := (1_000_000 + sh.k - 1) / sh.k
		counts := make([]int, sh.n)
		out := make([]int, 0, sh.k)
		for range trials {
			out = Floyd(&rng, sh.n, sh.k, out[:0])
			for _, v := range out {
				counts[v]++
			}
		}
		n, k, T := float64(sh.n), float64(sh.k), float64(trials)
		mean := T * k / n
		variance := T * k * (n - k) / (n * (n - 1))
		var stat float64
		for _, c := range counts {
			d := float64(c) - mean
			stat += d * d / variance
		}
		if crit := chiSquareCritical(sh.n - 1); stat > crit {
			t.Errorf("n=%d k=%d over %d draws: chi-square %.1f > %.1f (p = 0.001, %d dof)",
				sh.n, sh.k, trials, stat, crit, sh.n-1)
		}
	}
}
