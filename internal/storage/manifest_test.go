package storage

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
