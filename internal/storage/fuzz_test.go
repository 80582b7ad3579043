package storage

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzOpen throws arbitrary manifest/offset-index/edge-file byte
// triples at open-time validation: Open must reject truncated,
// corrupted, or inconsistent datasets with an error — never panic, and
// never return a dataset whose offset index could send the sampler out
// of bounds. Seed corpus (testdata/fuzz/FuzzOpen) covers the valid
// dataset plus each single-file corruption; run with
// `go test -fuzz=FuzzOpen ./internal/storage` to explore further.
func FuzzOpen(f *testing.F) {
	// A valid 4-node dataset and targeted corruptions of each file.
	man, off, edges := validDatasetBytes(f)
	f.Add(man, off, edges)
	f.Add(man, off, edges[:len(edges)-3])        // truncated edge file
	f.Add(man, off[:len(off)-1], edges)          // truncated offset index
	f.Add(man[:len(man)/2], off, edges)          // truncated manifest JSON
	f.Add([]byte("not json"), off, edges)        // garbage manifest
	f.Add(man, flipByte(off, 8), edges)          // non-monotone offsets
	f.Add(man, flipByte(off, len(off)-1), edges) // offsets overrun the edge file
	f.Add(corruptCount(man), off, edges)         // manifest/file count mismatch
	f.Add([]byte(`{"version":2,"name":"x","numNodes":-4,"numEdges":6,"binBytes":24}`), off, edges)
	f.Add([]byte{}, []byte{}, []byte{})

	f.Fuzz(func(t *testing.T, man, off, edges []byte) {
		dir := t.TempDir()
		for _, w := range []struct {
			name string
			data []byte
		}{
			{ManifestFile, man},
			{OffsetsFile, off},
			{EdgesFile, edges},
		} {
			if err := os.WriteFile(filepath.Join(dir, w.name), w.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := Open(dir)
		if err != nil {
			return // rejected, as corrupted inputs should be
		}
		defer ds.Close()
		// Accepted datasets must be internally consistent: every node's
		// range stays within the edge file.
		n := ds.NumNodes()
		if n <= 0 {
			t.Fatalf("Open accepted dataset with %d nodes", n)
		}
		for v := int64(0); v < n; v++ {
			st, en := ds.Range(uint32(v))
			if st < 0 || st > en || en > ds.NumEdges() {
				t.Fatalf("node %d range [%d,%d) escapes %d edges", v, st, en, ds.NumEdges())
			}
		}
	})
}

// validDatasetBytes builds the canonical tiny dataset in a temp dir and
// returns its three files' bytes.
func validDatasetBytes(f *testing.F) (man, off, edges []byte) {
	f.Helper()
	dir := f.TempDir()
	w, err := NewWriter(dir, "fuzz", 4)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {2, 0}, {2, 3}, {3, 2}} {
		if err := w.Add(e[0], e[1]); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	return read(ManifestFile), read(OffsetsFile), read(EdgesFile)
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	if len(out) > 0 {
		out[i%len(out)] ^= 0xff
	}
	return out
}

func corruptCount(man []byte) []byte {
	out := append([]byte(nil), man...)
	for i := range out {
		if out[i] == '6' {
			out[i] = '7'
			break
		}
	}
	return out
}

// TestFuzzSeedsKeepTheirVerdicts opens every checked-in seed of FuzzOpen,
// FuzzOpenFeatures and FuzzOpenLabels and compares Open's verdict — "ok",
// or the error with the temp dir written as DIR — with the one recorded
// for it, seed by seed: a change to how Open reads or checks a file must
// accept and reject exactly what it did, with the same message.
func TestFuzzSeedsKeepTheirVerdicts(t *testing.T) {
	files := map[string][]string{
		"FuzzOpen":         {ManifestFile, OffsetsFile, EdgesFile},
		"FuzzOpenFeatures": {ManifestFile, OffsetsFile, EdgesFile, FeaturesFile},
		"FuzzOpenLabels":   {ManifestFile, OffsetsFile, EdgesFile, LabelsFile},
	}
	seen := 0
	for target, names := range files {
		seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			args := fuzzSeedArgs(t, seed)
			if len(args) != len(names) {
				t.Fatalf("%s: %d arguments, %s takes %d", seed, len(args), target, len(names))
			}
			dir := t.TempDir()
			for i, name := range names {
				if err := os.WriteFile(filepath.Join(dir, name), args[i], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got := "ok"
			if ds, err := Open(dir); err != nil {
				got = strings.ReplaceAll(err.Error(), dir, "DIR")
			} else {
				ds.Close()
			}
			key := target + "/" + filepath.Base(seed)
			if want, ok := seedVerdicts[key]; !ok || got != want {
				t.Errorf("seed %s: verdict %q, recorded %q", key, got, want)
			}
			seen++
		}
	}
	if seen != len(seedVerdicts) {
		t.Fatalf("%d seeds checked in, %d verdicts recorded", seen, len(seedVerdicts))
	}
}

// fuzzSeedArgs decodes a corpus file of []byte arguments ("go test fuzz
// v1", then one []byte("...") literal per line).
func fuzzSeedArgs(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	var args [][]byte
	for _, line := range lines[1:] {
		lit, ok := strings.CutPrefix(line, "[]byte(")
		if lit, ok = strings.CutSuffix(lit, ")"); !ok {
			t.Fatalf("%s: %q is not a []byte argument", path, line)
		}
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		args = append(args, []byte(s))
	}
	return args
}

// seedVerdicts is Open's verdict on every checked-in seed, as recorded
// while the offset index was still decoded from a copy of the file.
var seedVerdicts = map[string]string{
	"FuzzOpen/14073a29b88ab2fa":           "storage: decode manifest DIR/manifest.json: invalid character '\\n' in string literal",
	"FuzzOpen/24ed21e2f5f0ea44":           "storage: decode manifest DIR/manifest.json: unexpected end of JSON input",
	"FuzzOpen/3e575163d7a9efe6":           "storage: decode manifest DIR/manifest.json: invalid character '\\x01' looking for beginning of value",
	"FuzzOpen/637a3b765c4d0b1c":           "storage: offset index DIR/offsets.idx not monotone at node 3",
	"FuzzOpen/6ca18ac65166f9fc":           "storage: decode manifest DIR/manifest.json: invalid character '\\x7f' looking for beginning of value",
	"FuzzOpen/74b222b5a80b9489":           "storage: decode manifest DIR/manifest.json: unexpected end of JSON input",
	"FuzzOpen/7e14cd3b0acaca7b":           "storage: decode manifest DIR/manifest.json: invalid character 'A' after object key:value pair",
	"FuzzOpen/8c43c88388885b6c":           "storage: decode manifest DIR/manifest.json: invalid character 'è' looking for beginning of value",
	"FuzzOpen/b10bcad37f38c99d":           "storage: decode manifest DIR/manifest.json: invalid character '0' after object key",
	"FuzzOpen/b6020ef4403a9e55":           "storage: manifest DIR/manifest.json has version 0, want 2",
	"FuzzOpen/bec780b446763b2b":           "storage: decode manifest DIR/manifest.json: invalid character '\\x01' after object key",
	"FuzzOpen/cbe341c9005d5f1d":           "storage: decode manifest DIR/manifest.json: invalid character '0' looking for beginning of object key string",
	"FuzzOpen/d91734d62ad088ab":           "storage: decode manifest DIR/manifest.json: unexpected end of JSON input",
	"FuzzOpenFeatures/checksum-flip":      "storage: feature file DIR/features.bin checksum 0760efaf != manifest 5a418fda (corrupt capture?)",
	"FuzzOpenFeatures/dim-huge":           "storage: manifest DIR featureDim 1048577 exceeds limit 1048576",
	"FuzzOpenFeatures/dim-zero":           "storage: manifest DIR has featureDim 0 but featBytes 64 / checksum \"5a418fda\" — inconsistent feature fields",
	"FuzzOpenFeatures/stride-mismatch":    "storage: manifest DIR featBytes 60 != ownedNodes*dim*4 = 64 (stride mismatch)",
	"FuzzOpenFeatures/truncated-features": "storage: feature file DIR/features.bin is 61 bytes, manifest expects 64 (truncated capture?)",
	"FuzzOpenFeatures/valid-featureful":   "ok",
	"FuzzOpenLabels/classes-huge":         "storage: manifest DIR numClasses 1048577 exceeds limit 1048576",
	"FuzzOpenLabels/classes-negative":     "storage: manifest DIR has negative numClasses -3",
	"FuzzOpenLabels/classes-shrunk":       "storage: label file DIR/labels.bin has label 2 out of range [0,2) at node 2",
	"FuzzOpenLabels/classes-zero":         "storage: manifest DIR has numClasses 0 but labelChecksum \"e179b494\" — inconsistent label fields",
	"FuzzOpenLabels/label-flip":           "storage: label file DIR/labels.bin has label 65280 out of range [0,3) at node 0",
	"FuzzOpenLabels/truncated-labels":     "storage: label file DIR/labels.bin is 13 bytes, manifest expects 16 (truncated capture?)",
	"FuzzOpenLabels/valid-labeled":        "ok",
}
