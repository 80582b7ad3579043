package gen

import (
	"os"
	"path/filepath"
	"testing"

	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// TestPartitionCoversGraphAndPreservesBytes: shard ranges tile
// [0, NumNodes) contiguously, every owned node's edge list and feature
// vector read back byte-identical to the single-node dataset through
// the global-offset API, and non-owned reads fail rather than return
// wrong bytes.
func TestPartitionCoversGraphAndPreservesBytes(t *testing.T) {
	src := filepath.Join(t.TempDir(), "g")
	if _, err := GenerateWith(src, "part", "rmat", 2000, 30_000, 11, Options{FeatureDim: 5}); err != nil {
		t.Fatal(err)
	}
	full, err := storage.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()

	for _, shards := range []int{1, 2, 3, 4} {
		dirs, err := Partition(src, filepath.Join(t.TempDir(), "shards"), shards)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if len(dirs) != shards {
			t.Fatalf("%d shards: got %d dirs", shards, len(dirs))
		}
		next := int64(0)
		for i, dir := range dirs {
			sd, err := storage.Open(dir)
			if err != nil {
				t.Fatalf("open shard %d: %v", i, err)
			}
			lo, hi := sd.ShardRange()
			if lo != next {
				t.Fatalf("shard %d starts at %d, want %d (gap/overlap)", i, lo, next)
			}
			next = hi
			if !sd.IsSharded() || sd.NumShards() != shards || sd.ShardIndex() != i {
				t.Fatalf("shard %d identity: sharded=%v %d/%d", i, sd.IsSharded(), sd.ShardIndex(), sd.NumShards())
			}
			if sd.NumNodes() != full.NumNodes() || sd.NumEdges() != full.NumEdges() {
				t.Fatalf("shard %d global counts %d/%d, want %d/%d", i, sd.NumNodes(), sd.NumEdges(), full.NumNodes(), full.NumEdges())
			}
			// Spot-check every 97th owned node: edge bytes and feature
			// bytes identical through the same global offsets.
			for v := lo; v < hi; v += 97 {
				st, en := full.Range(uint32(v))
				sst, sen := sd.Range(uint32(v))
				if st != sst || en != sen {
					t.Fatalf("shard %d node %d range (%d,%d) != full (%d,%d)", i, v, sst, sen, st, en)
				}
				if n := en - st; n > 0 {
					want := make([]byte, n*storage.EntryBytes)
					got := make([]byte, n*storage.EntryBytes)
					if _, err := full.ReadAt(want, st*storage.EntryBytes); err != nil {
						t.Fatal(err)
					}
					if _, err := sd.ReadAt(got, st*storage.EntryBytes); err != nil {
						t.Fatalf("shard %d node %d edge read: %v", i, v, err)
					}
					if string(want) != string(got) {
						t.Fatalf("shard %d node %d edge bytes differ", i, v)
					}
				}
				stride := full.FeatureStride()
				want := make([]byte, stride)
				got := make([]byte, stride)
				if _, err := full.FeatureReadBatch([]uring.Read{{Off: v * stride, Buf: want}}); err != nil {
					t.Fatal(err)
				}
				if _, err := sd.FeatureReadBatch([]uring.Read{{Off: v * stride, Buf: got}}); err != nil {
					t.Fatalf("shard %d node %d feature read: %v", i, v, err)
				}
				if string(want) != string(got) {
					t.Fatalf("shard %d node %d feature bytes differ", i, v)
				}
			}
			if shards > 1 {
				// A non-owned node's bytes are absent: the translated read
				// lands outside the local file and must error, not fabricate.
				var out uint32
				if lo > 0 {
					out = 0
				} else {
					out = uint32(hi)
				}
				st, en := full.Range(out)
				if n := en - st; n > 0 {
					buf := make([]byte, n*storage.EntryBytes)
					if _, err := sd.ReadAt(buf, st*storage.EntryBytes); err == nil && lo > 0 {
						t.Fatalf("shard %d served non-owned node %d's edge bytes", i, out)
					}
				}
				if sd.Owns(out) {
					t.Fatalf("shard %d claims to own %d outside [%d,%d)", i, out, lo, hi)
				}
			}
			sd.Close()
		}
		if next != full.NumNodes() {
			t.Fatalf("%d shards cover [0,%d), want [0,%d)", shards, next, full.NumNodes())
		}
	}
}

// TestPartitionRejectsTamperedShard: the strict open-time validation
// still bites on shard datasets — a truncated local edge file is
// rejected at open.
func TestPartitionRejectsTamperedShard(t *testing.T) {
	src := filepath.Join(t.TempDir(), "g")
	if _, err := Generate(src, "part", "rmat", 500, 5000, 3); err != nil {
		t.Fatal(err)
	}
	dirs, err := Partition(src, filepath.Join(t.TempDir(), "shards"), 2)
	if err != nil {
		t.Fatal(err)
	}
	edge := filepath.Join(dirs[1], storage.EdgesFile)
	fi, err := os.Stat(edge)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(edge, fi.Size()-storage.EntryBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Open(dirs[1]); err == nil {
		t.Fatal("Open accepted a truncated shard edge file")
	}

}

// TestPartitionCarriesFullLabels is the regression test for the
// labels × sharding interaction: every shard of a labeled dataset must
// open cleanly (the partition self-check would reject a shard whose
// labels.bin is missing or partial) and serve the WHOLE graph's label
// array byte-identically — not just its owned range — because a
// training consumer behind the router looks up every target's label
// locally.
func TestPartitionCarriesFullLabels(t *testing.T) {
	src := filepath.Join(t.TempDir(), "g")
	if _, err := GenerateWith(src, "partlab", "rmat", 1500, 20_000, 13,
		Options{FeatureDim: 5, NumClasses: 4}); err != nil {
		t.Fatal(err)
	}
	full, err := storage.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	want, err := full.Labels()
	if err != nil {
		t.Fatal(err)
	}

	dirs, err := Partition(src, filepath.Join(t.TempDir(), "shards"), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, dir := range dirs {
		sd, err := storage.Open(dir)
		if err != nil {
			t.Fatalf("open shard %d: %v", i, err)
		}
		if !sd.HasLabels() || sd.NumClasses() != full.NumClasses() {
			t.Fatalf("shard %d labels: has=%v classes=%d, want %d",
				i, sd.HasLabels(), sd.NumClasses(), full.NumClasses())
		}
		got, err := sd.Labels()
		if err != nil {
			t.Fatalf("shard %d labels: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("shard %d has %d labels, want the full graph's %d", i, len(got), len(want))
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("shard %d label[%d] = %d, want %d", i, v, got[v], want[v])
			}
		}
		sd.Close()
	}

	// A shard stripped of its label file must be rejected at open with a
	// clear error, never served label-less.
	if err := os.Remove(filepath.Join(dirs[1], storage.LabelsFile)); err != nil {
		t.Fatal(err)
	}
	if ds, err := storage.Open(dirs[1]); err == nil {
		ds.Close()
		t.Fatal("shard with deleted labels.bin opened cleanly")
	}
}

// TestGenerateLabelsDeterministicAndBalanced: labels are a pure
// function of (seed, node), every class shows up on a reasonably sized
// graph, and regeneration is byte-identical.
func TestGenerateLabelsDeterministicAndBalanced(t *testing.T) {
	const classes = 5
	opts := Options{FeatureDim: 6, NumClasses: classes}
	dirA := filepath.Join(t.TempDir(), "a")
	manA, err := GenerateWith(dirA, "lab", "rmat", 3000, 9000, 17, opts)
	if err != nil {
		t.Fatal(err)
	}
	if manA.NumClasses != classes || manA.LabelChecksum == "" {
		t.Fatalf("manifest labels: classes=%d checksum=%q", manA.NumClasses, manA.LabelChecksum)
	}
	dirB := filepath.Join(t.TempDir(), "b")
	manB, err := GenerateWith(dirB, "lab", "rmat", 3000, 9000, 17, opts)
	if err != nil {
		t.Fatal(err)
	}
	if manA.LabelChecksum != manB.LabelChecksum {
		t.Fatalf("regeneration changed labels: %s vs %s", manA.LabelChecksum, manB.LabelChecksum)
	}
	ds, err := storage.Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	labels, err := ds.Labels()
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, classes)
	for _, lab := range labels {
		counts[lab]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("class %d never assigned across %d nodes: %v", c, len(labels), counts)
		}
	}
}

// TestGenerateLabelOptionsValidation: labels without features, and
// degenerate class counts, are rejected up front.
func TestGenerateLabelOptionsValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := GenerateWith(filepath.Join(dir, "a"), "x", "rmat", 100, 200, 1,
		Options{NumClasses: 4}); err == nil {
		t.Fatal("labels without features accepted")
	}
	if _, err := GenerateWith(filepath.Join(dir, "b"), "x", "rmat", 100, 200, 1,
		Options{FeatureDim: 4, NumClasses: 1}); err == nil {
		t.Fatal("single-class labeling accepted")
	}
}
