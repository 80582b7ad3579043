package gen

import (
	"path/filepath"
	"sort"
	"testing"

	"ringsampler/internal/sample"
)

// randomEdges builds a deterministic shuffled edge stream with
// duplicate (Src, Dst) pairs mixed in, so sorting has real work and
// stable-duplicate handling is exercised.
func randomEdges(n int, seed uint64) []edge {
	rng := sample.NewRNG(seed)
	out := make([]edge, n)
	for i := range out {
		out[i] = edge{Src: rng.Uint32n(200), Dst: rng.Uint32n(500)}
	}
	return out
}

func runSort(t *testing.T, edges []edge, chunk int) []edge {
	t.Helper()
	s, err := newExternalSorter(t.TempDir(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := s.add(e); err != nil {
			t.Fatal(err)
		}
	}
	var got []edge
	if err := s.merge(func(e edge) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestExternalSortMultiChunk: a stream that spills many runs emits
// every edge exactly once in (Src, Dst) order, matching an in-memory
// reference sort.
func TestExternalSortMultiChunk(t *testing.T) {
	edges := randomEdges(1000, 42)
	got := runSort(t, edges, 64) // 1000 edges / 64-edge chunks → ≥15 spilled runs
	if len(got) != len(edges) {
		t.Fatalf("merge emitted %d edges, want %d", len(got), len(edges))
	}
	want := append([]edge(nil), edges...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].Src != want[j].Src {
			return want[i].Src < want[j].Src
		}
		return want[i].Dst < want[j].Dst
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestExternalSortDeterministicAndOrderInsensitive: the same multiset
// of edges yields the identical output sequence regardless of
// insertion order or chunk size — the property that makes regenerated
// datasets byte-identical.
func TestExternalSortDeterministicAndOrderInsensitive(t *testing.T) {
	edges := randomEdges(600, 7)
	a := runSort(t, edges, 50)
	// Reversed insertion order, different chunking.
	rev := make([]edge, len(edges))
	for i, e := range edges {
		rev[len(edges)-1-i] = e
	}
	b := runSort(t, rev, 128)
	if len(a) != len(b) {
		t.Fatalf("outputs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestExternalSortSingleChunk: everything fitting in one chunk takes
// the no-spill path and still sorts.
func TestExternalSortSingleChunk(t *testing.T) {
	edges := []edge{{3, 1}, {1, 9}, {1, 2}, {3, 0}, {0, 5}, {1, 2}}
	got := runSort(t, edges, 1024)
	want := []edge{{0, 5}, {1, 2}, {1, 2}, {1, 9}, {3, 0}, {3, 1}}
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestExternalSortCleansRuns: merge removes its spilled run files.
func TestExternalSortCleansRuns(t *testing.T) {
	dir := t.TempDir()
	s, err := newExternalSorter(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range randomEdges(100, 3) {
		if err := s.add(e); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.runs) == 0 {
		t.Fatal("expected spilled runs before merge")
	}
	if err := s.merge(func(edge) error { return nil }); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "run-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("run files left behind after merge: %v", left)
	}
}
