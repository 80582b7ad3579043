package gen

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ringsampler/internal/storage"
)

// TestRMATDeterminism: the same (nodes, edges, seed, params) streams
// the identical edge sequence, twice.
func TestRMATDeterminism(t *testing.T) {
	collect := func() [][2]uint32 {
		var out [][2]uint32
		if err := RMAT(1024, 5000, 7, RMATParams, func(s, d uint32) {
			out = append(out, [2]uint32{s, d})
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != 5000 || len(b) != 5000 {
		t.Fatalf("edge counts: %d / %d, want 5000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestGenerateByteIdentical: the full on-disk pipeline (generate →
// external sort → edge file + offset index + manifest) is byte-identical
// across runs with the same seed, and diverges for a different seed.
func TestGenerateByteIdentical(t *testing.T) {
	read := func(dir, name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	build := func(seed uint64) string {
		dir := t.TempDir()
		if _, err := Generate(dir, "det", "rmat", 500, 4000, seed); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	d1, d2, d3 := build(11), build(11), build(12)
	for _, name := range []string{"edges.dat", "offsets.idx"} {
		if !bytes.Equal(read(d1, name), read(d2, name)) {
			t.Fatalf("%s differs across runs with the same seed", name)
		}
	}
	if bytes.Equal(read(d1, "edges.dat"), read(d3, "edges.dat")) {
		t.Fatal("different seeds produced identical edge files")
	}
}

// TestGenerateWithFeatures: generation with a feature dim emits a
// deterministic features.bin (byte-identical across runs, divergent
// across seeds) whose size, manifest fields, and checksum all pass
// storage's open-time validation.
func TestGenerateWithFeatures(t *testing.T) {
	const dim = 5
	read := func(dir, name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	build := func(seed uint64) string {
		dir := t.TempDir()
		if _, err := GenerateWith(dir, "det", "rmat", 300, 2500, seed, Options{FeatureDim: dim}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	d1, d2, d3 := build(11), build(11), build(12)
	f1 := read(d1, storage.FeaturesFile)
	if want := int64(300 * dim * storage.FeatureElemBytes); int64(len(f1)) != want {
		t.Fatalf("features.bin is %d bytes, want %d", len(f1), want)
	}
	if !bytes.Equal(f1, read(d2, storage.FeaturesFile)) {
		t.Fatal("features.bin differs across runs with the same seed")
	}
	if bytes.Equal(f1, read(d3, storage.FeaturesFile)) {
		t.Fatal("different seeds produced identical feature files")
	}
	ds, err := storage.Open(d1)
	if err != nil {
		t.Fatalf("generated featureful dataset fails open-time validation: %v", err)
	}
	defer ds.Close()
	if !ds.HasFeatures() || ds.FeatureDim() != dim {
		t.Fatalf("opened dataset: has=%v dim=%d, want features with dim %d",
			ds.HasFeatures(), ds.FeatureDim(), dim)
	}
	if _, err := GenerateWith(t.TempDir(), "bad", "rmat", 10, 20, 1, Options{FeatureDim: -1}); err == nil {
		t.Fatal("GenerateWith accepted a negative feature dim")
	}
}

// TestGenerateDefaultEdgeOnly: the plain Generate path emits no feature
// file and leaves the manifest's feature fields zero, so pre-feature
// callers are untouched.
func TestGenerateDefaultEdgeOnly(t *testing.T) {
	dir := t.TempDir()
	if _, err := Generate(dir, "plain", "rmat", 200, 1500, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, storage.FeaturesFile)); !os.IsNotExist(err) {
		t.Fatalf("plain Generate left a feature file (stat err %v)", err)
	}
	ds, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.HasFeatures() {
		t.Fatal("plain Generate produced a featureful dataset")
	}
}

// TestGenerateRefusesOversizedFeatureDim: a feature dim past the limit
// Open enforces (1<<20) is refused by GenerateWith and leaves no
// features.bin, rather than writing a dataset Open would then refuse.
func TestGenerateRefusesOversizedFeatureDim(t *testing.T) {
	dir := t.TempDir()
	if _, err := GenerateWith(dir, "wide", "rmat", 2, 1, 1, Options{FeatureDim: 1<<20 + 1}); err == nil {
		t.Fatal("GenerateWith accepted feature dim 1<<20 + 1, which Open refuses")
	}
	if _, err := os.Stat(filepath.Join(dir, storage.FeaturesFile)); !os.IsNotExist(err) {
		t.Fatalf("refused generation left a feature file (stat err %v)", err)
	}
}

// TestRMATSkew: the paper-shaped quadrant probabilities concentrate
// edge mass on low-ID nodes far beyond what a uniform generator does —
// the hub-dominated regime offset-based sampling is designed for.
func TestRMATSkew(t *testing.T) {
	const nodes, edges = 4096, 40_000
	lowFrac := func(gen func(func(src, dst uint32)) error) float64 {
		low := 0
		total := 0
		if err := gen(func(s, d uint32) {
			total++
			if s < nodes/10 {
				low++
			}
		}); err != nil {
			t.Fatal(err)
		}
		return float64(low) / float64(total)
	}
	rmat := lowFrac(func(emit func(uint32, uint32)) error {
		return RMAT(nodes, edges, 3, RMATParams, emit)
	})
	uni := lowFrac(func(emit func(uint32, uint32)) error {
		return Uniform(nodes, edges, 3, emit)
	})
	if uni < 0.05 || uni > 0.15 {
		t.Fatalf("uniform low-ID source fraction %.3f implausible (want ≈0.10)", uni)
	}
	if rmat < 2*uni {
		t.Fatalf("R-MAT low-ID source fraction %.3f not skewed vs uniform %.3f", rmat, uni)
	}
}

// TestRMATParamsSane: quadrant probabilities are a distribution and
// keep the top-left (hub-forming) corner dominant.
func TestRMATParamsSane(t *testing.T) {
	p := RMATParams
	sum := p.A + p.B + p.C + p.D
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("RMATParams sum to %v, want 1", sum)
	}
	if p.A <= p.B || p.A <= p.C || p.A <= p.D {
		t.Fatalf("RMATParams %+v: quadrant A must dominate for hub skew", p)
	}
}

// TestGeneratorRangeValidation: node counts outside [1, 2^32-1] and
// negative edge counts are rejected; emitted endpoints stay in range.
func TestGeneratorRangeValidation(t *testing.T) {
	emit := func(uint32, uint32) {}
	if err := RMAT(0, 10, 1, RMATParams, emit); err == nil {
		t.Fatal("RMAT accepted 0 nodes")
	}
	if err := RMAT(1<<33, 10, 1, RMATParams, emit); err == nil {
		t.Fatal("RMAT accepted 2^33 nodes")
	}
	if err := RMAT(8, -1, 1, RMATParams, emit); err == nil {
		t.Fatal("RMAT accepted negative edge count")
	}
	if err := Uniform(0, 10, 1, emit); err == nil {
		t.Fatal("Uniform accepted 0 nodes")
	}
	// Non-power-of-two node count: the rejection loop must keep every
	// endpoint in range.
	const n = 1000
	if err := RMAT(n, 5000, 2, RMATParams, func(s, d uint32) {
		if s >= n || d >= n {
			t.Fatalf("edge (%d,%d) outside [0,%d)", s, d, n)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
