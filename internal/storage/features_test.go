package storage

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringsampler/internal/uring"
)

// writeFeatureDataset builds a tiny featureful dataset by hand: the
// 4-node fuzz graph plus a features.bin whose record for node v is
// [v*dim, v*dim+1, ...) as little-endian f32 bit patterns — distinct
// per node, so a read that lands on the wrong record is caught.
func writeFeatureDataset(t testing.TB, dim int) (dir string, feats []byte) {
	t.Helper()
	dir = t.TempDir()
	w, err := NewWriter(dir, "feat", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {2, 0}, {2, 3}, {3, 2}} {
		if err := w.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	feats = make([]byte, 4*dim*FeatureElemBytes)
	for i := 0; i < 4*dim; i++ {
		binary.LittleEndian.PutUint32(feats[i*FeatureElemBytes:], uint32(i))
	}
	featPath := filepath.Join(dir, FeaturesFile)
	if err := os.WriteFile(featPath, feats, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := ChecksumFile(featPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetFeatures(dim, int64(len(feats)), sum); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return dir, feats
}

func TestOpenFeaturesRoundTrip(t *testing.T) {
	const dim = 3
	dir, feats := writeFeatureDataset(t, dim)
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if !ds.HasFeatures() {
		t.Fatal("dataset with features.bin opened as edge-only")
	}
	if got := ds.FeatureDim(); got != dim {
		t.Fatalf("FeatureDim = %d, want %d", got, dim)
	}
	if got, want := ds.FeatureStride(), int64(dim*FeatureElemBytes); got != want {
		t.Fatalf("FeatureStride = %d, want %d", got, want)
	}
	stride := ds.FeatureStride()
	buf := make([]byte, stride)
	for v := int64(0); v < ds.NumNodes(); v++ {
		if _, err := ds.FeatureReadBatch([]uring.Read{{Off: v * stride, Buf: buf}}); err != nil {
			t.Fatalf("FeatureReadBatch(node %d): %v", v, err)
		}
		if want := feats[v*stride : (v+1)*stride]; !bytes.Equal(buf, want) {
			t.Fatalf("node %d feature bytes = %x, want %x", v, buf, want)
		}
	}
}

func TestOpenEdgeOnlyHasNoFeatures(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, "plain", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]uint32{{0, 1}, {2, 3}} {
		if err := w.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.HasFeatures() || ds.FeatureDim() != 0 || ds.FeatureStride() != 0 {
		t.Fatalf("edge-only dataset reports features: has=%v dim=%d stride=%d",
			ds.HasFeatures(), ds.FeatureDim(), ds.FeatureStride())
	}
	if _, err := ds.FeatureReadBatch([]uring.Read{{Buf: make([]byte, 4)}}); err == nil {
		t.Fatal("FeatureReadBatch on an edge-only dataset did not error")
	}
}

// TestOpenFeaturesRejectsCorruption applies each single-point corruption
// a capture could suffer and asserts open-time validation refuses it
// with a diagnostic naming the problem — never a clean open that would
// surface as wrong vectors mid-epoch.
func TestOpenFeaturesRejectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		wantErr string
	}{
		{"truncated feature file", func(t *testing.T, dir string) {
			p := filepath.Join(dir, FeaturesFile)
			b, _ := os.ReadFile(p)
			if err := os.WriteFile(p, b[:len(b)-1], 0o644); err != nil {
				t.Fatal(err)
			}
		}, "truncated capture"},
		{"flipped feature byte", func(t *testing.T, dir string) {
			p := filepath.Join(dir, FeaturesFile)
			b, _ := os.ReadFile(p)
			b[len(b)/2] ^= 0xff
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "corrupt capture"},
		{"missing feature file", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, FeaturesFile)); err != nil {
				t.Fatal(err)
			}
		}, "stat feature file"},
		{"stride mismatch", func(t *testing.T, dir string) {
			editManifest(t, dir, `"featBytes": 64`, `"featBytes": 60`)
		}, "stride mismatch"},
		{"dim zero with feature bytes", func(t *testing.T, dir string) {
			editManifest(t, dir, `"featureDim": 4`, `"featureDim": 0`)
		}, "inconsistent feature fields"},
		{"negative dim", func(t *testing.T, dir string) {
			editManifest(t, dir, `"featureDim": 4`, `"featureDim": -4`)
		}, "negative featureDim"},
		{"checksum flip", func(t *testing.T, dir string) {
			man, err := os.ReadFile(filepath.Join(dir, ManifestFile))
			if err != nil {
				t.Fatal(err)
			}
			i := bytes.Index(man, []byte(`"featChecksum": "`))
			if i < 0 {
				t.Fatal("no featChecksum in manifest")
			}
			c := &man[i+len(`"featChecksum": "`)]
			if *c == 'f' {
				*c = '0'
			} else {
				*c = 'f'
			}
			if err := os.WriteFile(filepath.Join(dir, ManifestFile), man, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "checksum"},
		{"missing checksum", func(t *testing.T, dir string) {
			man, err := os.ReadFile(filepath.Join(dir, ManifestFile))
			if err != nil {
				t.Fatal(err)
			}
			i := bytes.Index(man, []byte(`"featChecksum": "`))
			j := bytes.IndexByte(man[i+len(`"featChecksum": "`):], '"')
			out := append([]byte(nil), man[:i+len(`"featChecksum": "`)]...)
			out = append(out, man[i+len(`"featChecksum": "`)+j:]...)
			if err := os.WriteFile(filepath.Join(dir, ManifestFile), out, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "no featChecksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := writeFeatureDataset(t, 4)
			tc.corrupt(t, dir)
			ds, err := Open(dir)
			if err == nil {
				ds.Close()
				t.Fatalf("Open accepted a dataset with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func editManifest(t *testing.T, dir, old, new string) {
	t.Helper()
	p := filepath.Join(dir, ManifestFile)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(old)) {
		t.Fatalf("manifest does not contain %q:\n%s", old, b)
	}
	b = bytes.Replace(b, []byte(old), []byte(new), 1)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSetFeaturesValidation(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, "x", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetFeatures(0, 0, "deadbeefdeadbeef"); err == nil {
		t.Fatal("SetFeatures accepted dim 0")
	}
	if err := w.SetFeatures(-1, 16, "deadbeefdeadbeef"); err == nil {
		t.Fatal("SetFeatures accepted negative dim")
	}
	if err := w.SetFeatures(2, 31, "deadbeefdeadbeef"); err == nil {
		t.Fatal("SetFeatures accepted featBytes that disagree with numNodes*dim*4")
	}
	if err := w.SetFeatures(2, 32, "deadbeefdeadbeef"); err != nil {
		t.Fatalf("SetFeatures rejected consistent fields: %v", err)
	}
}

func TestChecksumFile(t *testing.T) {
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	content := bytes.Repeat([]byte{0xab, 0x12, 0x00, 0x7f}, 5000)
	for _, p := range []string{p1, p2} {
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s1, err := ChecksumFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ChecksumFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("identical content hashed differently: %s vs %s", s1, s2)
	}
	if len(s1) != 8 {
		t.Fatalf("checksum %q is not fixed-width 8 hex chars", s1)
	}
	content[0] ^= 1
	if err := os.WriteFile(p2, content, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := ChecksumFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatal("single-bit flip did not change the checksum")
	}
	if _, err := ChecksumFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("ChecksumFile of a missing path did not error")
	}
}

// FuzzOpenFeatures extends FuzzOpen's contract to the fourth file:
// arbitrary manifest/offsets/edges/features byte quadruples must either
// be rejected at open or yield a dataset whose feature surface is
// internally consistent — never a panic, and never an accepted dataset
// whose declared stride escapes the feature file. Seed corpus
// (testdata/fuzz/FuzzOpenFeatures) covers the valid featureful dataset
// plus each targeted corruption; explore further with
// `go test -fuzz=FuzzOpenFeatures ./internal/storage`.
func FuzzOpenFeatures(f *testing.F) {
	man, off, edges, feats := validFeatureDatasetBytes(f)
	f.Add(man, off, edges, feats)
	f.Add(man, off, edges, feats[:len(feats)-3])                                   // truncated feature file
	f.Add(man, off, edges, flipByte(feats, 7))                                     // checksum mismatch
	f.Add(swapField(man, `"featBytes": 64`, `"featBytes": 60`), off, edges, feats) // stride mismatch
	f.Add(swapField(man, `"featureDim": 4`, `"featureDim": 0`), off, edges, feats) // dim 0, featBytes kept
	f.Add(swapField(man, `"featureDim": 4`, `"featureDim": -4`), off, edges, feats)
	f.Add(swapField(man, `"featureDim": 4`, `"featureDim": 1048577`), off, edges, feats)
	f.Add(man, off, edges, []byte{})

	f.Fuzz(func(t *testing.T, man, off, edges, feats []byte) {
		dir := t.TempDir()
		for _, w := range []struct {
			name string
			data []byte
		}{
			{ManifestFile, man},
			{OffsetsFile, off},
			{EdgesFile, edges},
			{FeaturesFile, feats},
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
		if !ds.HasFeatures() {
			if ds.FeatureDim() != 0 || ds.FeatureStride() != 0 {
				t.Fatalf("edge-only dataset reports dim %d / stride %d", ds.FeatureDim(), ds.FeatureStride())
			}
			return
		}
		// Accepted featureful datasets must be internally consistent:
		// positive dim, matching stride, and every node's record readable
		// in full from the actual file.
		dim := ds.FeatureDim()
		stride := ds.FeatureStride()
		if dim <= 0 || stride != int64(dim)*FeatureElemBytes {
			t.Fatalf("accepted dataset has dim %d / stride %d", dim, stride)
		}
		if int64(len(feats)) != ds.NumNodes()*stride {
			t.Fatalf("accepted feature file of %d bytes for %d nodes at stride %d",
				len(feats), ds.NumNodes(), stride)
		}
		buf := make([]byte, stride)
		last := ds.NumNodes() - 1
		if _, err := ds.FeatureReadBatch([]uring.Read{{Off: last * stride, Buf: buf}}); err != nil {
			t.Fatalf("accepted dataset cannot read node %d's record: %v", last, err)
		}
	})
}

// validFeatureDatasetBytes builds the canonical tiny featureful dataset
// and returns its four files' bytes.
func validFeatureDatasetBytes(f *testing.F) (man, off, edges, feats []byte) {
	f.Helper()
	dir, _ := writeFeatureDataset(f, 4)
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	return read(ManifestFile), read(OffsetsFile), read(EdgesFile), read(FeaturesFile)
}

func swapField(man []byte, old, new string) []byte {
	return bytes.Replace(append([]byte(nil), man...), []byte(old), []byte(new), 1)
}
