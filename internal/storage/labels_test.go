package storage

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeLabeledDataset builds a tiny labeled dataset by hand: the 4-node
// fuzz graph plus a labels.bin assigning node v class v%classes —
// distinct per node modulo classes, every value in range.
func writeLabeledDataset(t testing.TB, classes int) (dir string, labs []byte) {
	t.Helper()
	dir = t.TempDir()
	w, err := NewWriter(dir, "lab", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {2, 0}, {2, 3}, {3, 2}} {
		if err := w.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	labs = make([]byte, 4*LabelBytes)
	for v := 0; v < 4; v++ {
		binary.LittleEndian.PutUint32(labs[v*LabelBytes:], uint32(v%classes))
	}
	labPath := filepath.Join(dir, LabelsFile)
	if err := os.WriteFile(labPath, labs, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := ChecksumFile(labPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetLabels(classes, sum); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return dir, labs
}

func TestOpenLabelsRoundTrip(t *testing.T) {
	const classes = 3
	dir, _ := writeLabeledDataset(t, classes)
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if !ds.HasLabels() {
		t.Fatal("dataset with labels.bin opened as unlabeled")
	}
	if got := ds.NumClasses(); got != classes {
		t.Fatalf("NumClasses = %d, want %d", got, classes)
	}
	labels, err := ds.Labels()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(labels)) != ds.NumNodes() {
		t.Fatalf("Labels() has %d entries for %d nodes", len(labels), ds.NumNodes())
	}
	for v, lab := range labels {
		if want := uint32(v % classes); lab != want {
			t.Fatalf("label[%d] = %d, want %d", v, lab, want)
		}
	}
	// Second call returns the cached array.
	again, err := ds.Labels()
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &labels[0] {
		t.Fatal("Labels() reloaded instead of returning the cached array")
	}
}

func TestOpenUnlabeledHasNoLabels(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, "plain", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.HasLabels() || ds.NumClasses() != 0 {
		t.Fatalf("unlabeled dataset reports labels: has=%v classes=%d", ds.HasLabels(), ds.NumClasses())
	}
	if _, err := ds.Labels(); err == nil {
		t.Fatal("Labels() on an unlabeled dataset did not error")
	}
}

// TestOpenLabelsRejectsCorruption applies each single-point corruption
// a labeled capture could suffer and asserts open-time validation
// refuses it with a diagnostic naming the problem — mirroring the
// feature corruption suite; a clean open would surface as silently
// wrong supervision mid-training.
func TestOpenLabelsRejectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		wantErr string
	}{
		{"truncated label file", func(t *testing.T, dir string) {
			p := filepath.Join(dir, LabelsFile)
			b, _ := os.ReadFile(p)
			if err := os.WriteFile(p, b[:len(b)-1], 0o644); err != nil {
				t.Fatal(err)
			}
		}, "truncated capture"},
		{"flipped low label byte", func(t *testing.T, dir string) {
			// Flips within the class range (0..2 -> small values), so the
			// checksum — not the range scan — must catch it.
			p := filepath.Join(dir, LabelsFile)
			b, _ := os.ReadFile(p)
			b[0] ^= 0x01
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "corrupt capture"},
		{"out-of-range label", func(t *testing.T, dir string) {
			// Writes a huge class id AND fixes the checksum, so only the
			// value-range scan can reject it.
			p := filepath.Join(dir, LabelsFile)
			b, _ := os.ReadFile(p)
			binary.LittleEndian.PutUint32(b[LabelBytes:], 0xdead)
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			sum, err := ChecksumFile(p)
			if err != nil {
				t.Fatal(err)
			}
			man, err := os.ReadFile(filepath.Join(dir, ManifestFile))
			if err != nil {
				t.Fatal(err)
			}
			i := bytes.Index(man, []byte(`"labelChecksum": "`))
			if i < 0 {
				t.Fatal("no labelChecksum in manifest")
			}
			i += len(`"labelChecksum": "`)
			copy(man[i:i+len(sum)], sum)
			if err := os.WriteFile(filepath.Join(dir, ManifestFile), man, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "out of range"},
		{"missing label file", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, LabelsFile)); err != nil {
				t.Fatal(err)
			}
		}, "stat label file"},
		{"numClasses zero with checksum", func(t *testing.T, dir string) {
			editManifest(t, dir, `"numClasses": 3`, `"numClasses": 0`)
		}, "inconsistent label fields"},
		{"negative numClasses", func(t *testing.T, dir string) {
			editManifest(t, dir, `"numClasses": 3`, `"numClasses": -3`)
		}, "negative numClasses"},
		{"numClasses over limit", func(t *testing.T, dir string) {
			editManifest(t, dir, `"numClasses": 3`, `"numClasses": 1048577`)
		}, "exceeds limit"},
		{"numClasses mismatch", func(t *testing.T, dir string) {
			// Shrinking the class count makes node 2's label (class 2) out
			// of range — the scan catches a manifest/file disagreement.
			editManifest(t, dir, `"numClasses": 3`, `"numClasses": 2`)
		}, "out of range"},
		{"checksum flip", func(t *testing.T, dir string) {
			man, err := os.ReadFile(filepath.Join(dir, ManifestFile))
			if err != nil {
				t.Fatal(err)
			}
			i := bytes.Index(man, []byte(`"labelChecksum": "`))
			if i < 0 {
				t.Fatal("no labelChecksum in manifest")
			}
			c := &man[i+len(`"labelChecksum": "`)]
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
			i := bytes.Index(man, []byte(`"labelChecksum": "`))
			j := bytes.IndexByte(man[i+len(`"labelChecksum": "`):], '"')
			out := append([]byte(nil), man[:i+len(`"labelChecksum": "`)]...)
			out = append(out, man[i+len(`"labelChecksum": "`)+j:]...)
			if err := os.WriteFile(filepath.Join(dir, ManifestFile), out, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "no labelChecksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := writeLabeledDataset(t, 3)
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

func TestSetLabelsValidation(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, "x", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetLabels(0, "deadbeefdeadbeef"); err == nil {
		t.Fatal("SetLabels accepted 0 classes")
	}
	if err := w.SetLabels(1, "deadbeefdeadbeef"); err == nil {
		t.Fatal("SetLabels accepted 1 class")
	}
	if err := w.SetLabels(maxNumClasses+1, "deadbeefdeadbeef"); err == nil {
		t.Fatal("SetLabels accepted a class count over the limit")
	}
	if err := w.SetLabels(2, "deadbeefdeadbeef"); err != nil {
		t.Fatalf("SetLabels rejected consistent fields: %v", err)
	}
}

// FuzzOpenLabels extends the FuzzOpen contract to the label file:
// arbitrary manifest/offsets/edges/labels byte quadruples must either
// be rejected at open or yield a dataset whose label surface is
// internally consistent — never a panic, and never an accepted label
// array with a class id at or above NumClasses. Seed corpus
// (testdata/fuzz/FuzzOpenLabels) covers the valid labeled dataset plus
// each targeted corruption; explore further with
// `go test -fuzz=FuzzOpenLabels ./internal/storage`.
func FuzzOpenLabels(f *testing.F) {
	man, off, edges, labs := validLabeledDatasetBytes(f)
	f.Add(man, off, edges, labs)
	f.Add(man, off, edges, labs[:len(labs)-3])                                          // truncated label file
	f.Add(man, off, edges, flipByte(labs, 1))                                           // checksum mismatch
	f.Add(swapField(man, `"numClasses": 3`, `"numClasses": 0`), off, edges, labs)       // classes 0, checksum kept
	f.Add(swapField(man, `"numClasses": 3`, `"numClasses": -3`), off, edges, labs)      // negative classes
	f.Add(swapField(man, `"numClasses": 3`, `"numClasses": 2`), off, edges, labs)       // label out of shrunk range
	f.Add(swapField(man, `"numClasses": 3`, `"numClasses": 1048577`), off, edges, labs) // over the limit
	f.Add(man, off, edges, []byte{})

	f.Fuzz(func(t *testing.T, man, off, edges, labs []byte) {
		dir := t.TempDir()
		for _, w := range []struct {
			name string
			data []byte
		}{
			{ManifestFile, man},
			{OffsetsFile, off},
			{EdgesFile, edges},
			{LabelsFile, labs},
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
		if !ds.HasLabels() {
			if ds.NumClasses() != 0 {
				t.Fatalf("unlabeled dataset reports %d classes", ds.NumClasses())
			}
			if _, err := ds.Labels(); err == nil {
				t.Fatal("unlabeled dataset served a label array")
			}
			return
		}
		// Accepted labeled datasets must be internally consistent: a
		// label per node, every value strictly below NumClasses.
		classes := ds.NumClasses()
		if classes < 2 {
			t.Fatalf("accepted dataset has %d classes", classes)
		}
		labels, err := ds.Labels()
		if err != nil {
			t.Fatalf("accepted dataset cannot load labels: %v", err)
		}
		if int64(len(labels)) != ds.NumNodes() {
			t.Fatalf("accepted label array has %d entries for %d nodes", len(labels), ds.NumNodes())
		}
		for v, lab := range labels {
			if lab >= uint32(classes) {
				t.Fatalf("accepted label[%d] = %d escapes %d classes", v, lab, classes)
			}
		}
	})
}

// validLabeledDatasetBytes builds the canonical tiny labeled dataset
// and returns its four files' bytes.
func validLabeledDatasetBytes(f *testing.F) (man, off, edges, labs []byte) {
	f.Helper()
	dir, _ := writeLabeledDataset(f, 3)
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	return read(ManifestFile), read(OffsetsFile), read(EdgesFile), read(LabelsFile)
}
