package sample

import (
	"fmt"
	"slices"
	"testing"
)

// sortDedupRef is the comparison-sort definition the radix path must
// reproduce exactly.
func sortDedupRef(xs []uint32) []uint32 {
	slices.Sort(xs)
	return slices.Compact(xs)
}

// TestSortDedupMatchesReference: radix SortDedup ≡ slices.Sort +
// slices.Compact over sizes on both sides of the crossover and over the
// input shapes that exercise each digit: narrow ranges (upper digits
// constant — passes skipped), full-width keys with the top bits set,
// all-equal, sorted and reversed inputs, heavy duplication. One scratch
// is carried across every call, as a worker carries it.
func TestSortDedupMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 2, radixMinLen - 1, radixMinLen, radixMinLen + 1, 1000, 4096, 50_000}
	shapes := []struct {
		name string
		gen  func(r *RNG, i, n int) uint32
	}{
		{"node-ids-1m", func(r *RNG, _, _ int) uint32 { return r.Uint32n(1_000_000) }},
		{"full-width", func(r *RNG, _, _ int) uint32 { return uint32(r.Next()) }},
		{"top-bits-set", func(r *RNG, _, _ int) uint32 { return 0xffc00000 | r.Uint32n(1<<22) }},
		{"top-digit-only", func(r *RNG, _, _ int) uint32 { return r.Uint32n(1<<10) << 22 }},
		{"few-distinct", func(r *RNG, _, _ int) uint32 { return r.Uint32n(7) * 0x01010101 }},
		{"all-equal", func(*RNG, int, int) uint32 { return 0xdeadbeef }},
		{"sorted", func(_ *RNG, i, _ int) uint32 { return uint32(i) * 3 }},
		{"reversed", func(_ *RNG, i, n int) uint32 { return uint32(n-i) * 5 }},
	}
	var scratch []uint32
	for _, sh := range shapes {
		for _, n := range sizes {
			r := NewRNG(Mix(uint64(n), 17))
			in := make([]uint32, n)
			for i := range in {
				in[i] = sh.gen(&r, i, n)
			}
			want := sortDedupRef(slices.Clone(in))
			for _, got := range [][]uint32{
				SortDedupScratch(slices.Clone(in), &scratch),
				SortDedup(slices.Clone(in)),
			} {
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d: got %d keys, want %d; first difference at %d", sh.name, n, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
}

func firstDiff(a, b []uint32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestSortDedupScratchAllocFree: with a warm scratch the radix path
// allocates nothing.
func TestSortDedupScratchAllocFree(t *testing.T) {
	r := NewRNG(5)
	in := make([]uint32, 20_000)
	for i := range in {
		in[i] = r.Uint32n(1_000_000)
	}
	work := make([]uint32, len(in))
	var scratch []uint32
	SortDedupScratch(append(work[:0], in...), &scratch)
	if a := testing.AllocsPerRun(10, func() { SortDedupScratch(append(work[:0], in...), &scratch) }); a != 0 {
		t.Fatalf("SortDedupScratch allocated %v times per call with a warm scratch", a)
	}
}

func BenchmarkSortDedup(b *testing.B) {
	for _, n := range []int{64, 128, 256, 384, 512, 1024, 2048, 8192, 65536, 500_000} {
		r := NewRNG(9)
		in := make([]uint32, n)
		for i := range in {
			in[i] = r.Uint32n(1_000_000)
		}
		work := make([]uint32, n)
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			var scratch []uint32
			for i := 0; i < b.N; i++ {
				SortDedupScratch(append(work[:0], in...), &scratch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
		b.Run(fmt.Sprintf("pdq/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sortDedupRef(append(work[:0], in...))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
}
