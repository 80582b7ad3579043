package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// Label-store layout (DESIGN.md §13): labels.bin is a flat array of
// NumNodes little-endian uint32 class ids, node v's label at byte
// v*LabelBytes, every value in [0, NumClasses). Unlike the edge and
// feature files, a shard dataset carries the WHOLE graph's labels —
// the file is node-proportional like the offset index, and a training
// consumer downstream of the router needs every target's label no
// matter which shard owned the target's bytes.
const (
	LabelsFile = "labels.bin"

	LabelBytes = 4 // one little-endian uint32 class id

	// maxNumClasses bounds the class count accepted at open. Generous
	// for any real node-classification task, small enough that a corrupt
	// manifest cannot make the out-of-range scan meaningless.
	maxNumClasses = 1 << 20
)

// validateLabels checks the manifest's label fields against the
// directory contents with the same strictness as the feature checks: a
// labeled dataset whose file is truncated, whose bytes fail the
// checksum, or which contains a class id at or above NumClasses is
// rejected at open rather than surfacing as a panic (or silently wrong
// supervision) mid-training. Returns the label file path for a labeled
// dataset, or "" for a valid unlabeled one.
func validateLabels(dir string, man Manifest) (string, error) {
	if man.NumClasses < 0 {
		return "", fmt.Errorf("storage: manifest %s has negative numClasses %d", dir, man.NumClasses)
	}
	if man.NumClasses == 0 {
		if man.LabelChecksum != "" {
			return "", fmt.Errorf("storage: manifest %s has numClasses 0 but labelChecksum %q — inconsistent label fields",
				dir, man.LabelChecksum)
		}
		return "", nil
	}
	if man.NumClasses > maxNumClasses {
		return "", fmt.Errorf("storage: manifest %s numClasses %d exceeds limit %d", dir, man.NumClasses, maxNumClasses)
	}
	if man.LabelChecksum == "" {
		return "", fmt.Errorf("storage: manifest %s declares %d classes but no labelChecksum", dir, man.NumClasses)
	}
	path := filepath.Join(dir, LabelsFile)
	if err := readLabels(path, man, nil); err != nil {
		return "", err
	}
	return path, nil
}

// readLabels is the one reader of labels.bin, shared by Open and Labels
// so the bytes a training consumer decodes are the bytes that were
// verified. In one chunked, concurrent pass over the file (see checksum)
// it checks the size (labels are whole-graph, so NumNodes*LabelBytes
// even on a shard dataset), range-checks every class id against
// NumClasses — reporting the first bad node — and compares the CRC-32C
// with LabelChecksum. When out is non-nil (length NumNodes) it also
// receives the decoded labels.
func readLabels(path string, man Manifest, out []uint32) error {
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("storage: stat label file: %w", err)
	}
	want := man.NumNodes * LabelBytes
	if fi.Size() != want {
		return fmt.Errorf("storage: label file %s is %d bytes, manifest expects %d (truncated capture?)", path, fi.Size(), want)
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: open label file: %w", err)
	}
	defer f.Close()
	sum, err := checksum(f, want, func(off int64, b []byte) error {
		for i := 0; i < len(b); i += LabelBytes {
			lab := binary.LittleEndian.Uint32(b[i:])
			v := (off + int64(i)) / LabelBytes
			if lab >= uint32(man.NumClasses) {
				return fmt.Errorf("storage: label file %s has label %d out of range [0,%d) at node %d",
					path, lab, man.NumClasses, v)
			}
			if out != nil {
				out[v] = lab
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if got := formatChecksum(sum); got != man.LabelChecksum {
		return fmt.Errorf("storage: label file %s checksum %s != manifest %s (corrupt capture?)", path, got, man.LabelChecksum)
	}
	return nil
}

// HasLabels reports whether the dataset carries a per-node label file.
func (d *Dataset) HasLabels() bool { return d.labelPath != "" }

// NumClasses returns the label class count, or 0 for an unlabeled
// dataset.
func (d *Dataset) NumClasses() int { return d.man.NumClasses }

// Labels returns the whole graph's per-node label array (labels[v] is
// node v's class id), lazily loaded and cached on first call. The load
// re-verifies the file exactly as Open did, so a label file replaced
// after Open fails here instead of being trained on. The array is
// node-proportional — 4 bytes per node, half the offset index the
// sampler already holds — which is what lets the training consumer keep
// every target's supervision in memory while the features stay on disk
// behind the ring. Callers must not mutate the returned slice.
func (d *Dataset) Labels() ([]uint32, error) {
	if d.labelPath == "" {
		return nil, fmt.Errorf("storage: dataset %s has no label file", d.dir)
	}
	d.labelsOnce.Do(func() {
		labels := make([]uint32, d.man.NumNodes)
		if err := readLabels(d.labelPath, d.man, labels); err != nil {
			d.labelsErr = err
			return
		}
		d.labels = labels
	})
	return d.labels, d.labelsErr
}
