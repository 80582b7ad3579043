package graph

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ringsampler/internal/sample"
)

// randomEdges builds a deterministic shuffled edge stream with
// duplicate (Src, Dst) pairs mixed in, so sorting has real work and
// stable-duplicate handling is exercised.
func randomEdges(n int, seed uint64) []Edge {
	rng := sample.NewRNG(seed)
	out := make([]Edge, n)
	for i := range out {
		out[i] = Edge{Src: rng.Uint32n(200), Dst: rng.Uint32n(500)}
	}
	return out
}

func runSort(t *testing.T, edges []Edge, chunk int) []Edge {
	t.Helper()
	s, err := NewExternalSorter(t.TempDir(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	var got []Edge
	if err := s.Merge(func(e Edge) error {
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
	want := append([]Edge(nil), edges...)
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
	rev := make([]Edge, len(edges))
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
	edges := []Edge{{3, 1}, {1, 9}, {1, 2}, {3, 0}, {0, 5}, {1, 2}}
	got := runSort(t, edges, 1024)
	want := []Edge{{0, 5}, {1, 2}, {1, 2}, {1, 9}, {3, 0}, {3, 1}}
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestExternalSortCleansRuns: Merge removes its spilled run files.
func TestExternalSortCleansRuns(t *testing.T) {
	dir := t.TempDir()
	s, err := NewExternalSorter(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range randomEdges(100, 3) {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.runs) == 0 {
		t.Fatal("expected spilled runs before merge")
	}
	if err := s.Merge(func(Edge) error { return nil }); err != nil {
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

// TestManifestRoundTrip: Save then Load reproduces the manifest.
func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := Manifest{
		Version:  ManifestVersion,
		Name:     "round-trip",
		NumNodes: 123,
		NumEdges: 456,
		BinBytes: 456 * 4,
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip changed manifest: %+v vs %+v", got, m)
	}
}

// TestManifestRejectsCorruption: missing files, invalid JSON and
// version mismatches are all load-time errors.
func TestManifestRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadManifest(filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("missing manifest accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(bad); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
	stale := filepath.Join(dir, "stale.json")
	m := Manifest{Version: ManifestVersion + 1, Name: "future", NumNodes: 1}
	if err := m.Save(stale); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(stale); err == nil {
		t.Fatal("version mismatch accepted")
	}
	// A version-1 manifest carries FNV-1a sums nothing verifies; the
	// refusal names the fix.
	v1 := filepath.Join(dir, "v1.json")
	m = Manifest{Version: 1, Name: "fnv", NumNodes: 1}
	if err := m.Save(v1); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(v1); err == nil || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("version-1 manifest: err %v, want a refusal that says regenerate", err)
	}
}
