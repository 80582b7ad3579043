package cache

import (
	"encoding/binary"
	"testing"

	"ringsampler/internal/memctl"
	"ringsampler/internal/uring"
)

// fakeGraph is an in-memory CSR standing in for storage.Dataset.
type fakeGraph struct {
	offsets []int64
	edges   []byte // little-endian u32 entries
}

func (g *fakeGraph) NumNodes() int64  { return int64(len(g.offsets) - 1) }
func (g *fakeGraph) Offsets() []int64 { return g.offsets }
func (g *fakeGraph) Range(v uint32) (int64, int64) {
	return g.offsets[v], g.offsets[v+1]
}
func (g *fakeGraph) ReadBatch(dst []byte, reads []uring.Read) (int64, error) {
	var moved int64
	for _, rd := range reads {
		moved += int64(copy(dst[rd.Pos:rd.Pos+rd.Len], g.edges[rd.Off:]))
	}
	return moved, nil
}

// offsetsOf is the CSR offset index of a degree sequence.
func offsetsOf(degrees []int64) []int64 {
	offsets := make([]int64, len(degrees)+1)
	for i, d := range degrees {
		offsets[i+1] = offsets[i] + d
	}
	return offsets
}

// buildFake makes a graph where node v has degrees[v] neighbors, each
// entry value encoding (node, position) so cached bytes are checkable.
func buildFake(degrees []int64) *fakeGraph {
	offsets := offsetsOf(degrees)
	edges := make([]byte, offsets[len(degrees)]*EntryBytes)
	for v, d := range degrees {
		for j := int64(0); j < d; j++ {
			binary.LittleEndian.PutUint32(edges[(offsets[v]+j)*EntryBytes:], uint32(v)<<16|uint32(j))
		}
	}
	return &fakeGraph{offsets: offsets, edges: edges}
}

// TestBuildShortestFirstPrefix: selection is shortest-list-first with id
// tie-break, stops at the first candidate that does not fit, and the
// cached bytes are exactly the file bytes.
func TestBuildShortestFirstPrefix(t *testing.T) {
	// Degrees: node 5 is the shortest list, then nodes 0 and 4 tie, then
	// node 1 and node 3; node 2 is degree-0 and must never be cached.
	g := buildFake([]int64{4, 10, 0, 20, 4, 1})
	// Budget fits node 5 (4 B + overhead) and node 0 (16 B + overhead)
	// but not its tie, node 4: the prefix rule stops there, and a
	// longer list would not fit either.
	perRow, fixed := overhead(6, true, false)
	budget := memctl.New(1*EntryBytes + 4*EntryBytes + 2*perRow + fixed + 4*EntryBytes + perRow - 1)
	h, err := Build(g, budget)
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", h.Nodes())
	}
	if h.Bytes() != 5*EntryBytes {
		t.Fatalf("Bytes = %d, want %d", h.Bytes(), 5*EntryBytes)
	}
	for _, v := range []uint32{1, 2, 3, 4} {
		if h.Lookup(v) != nil {
			t.Fatalf("node %d unexpectedly cached", v)
		}
	}
	for _, v := range []uint32{0, 5} {
		nb := h.Lookup(v)
		st, en := g.Range(v)
		if int64(len(nb)) != (en-st)*EntryBytes {
			t.Fatalf("node %d cached %d bytes, want %d", v, len(nb), (en-st)*EntryBytes)
		}
		for j := st; j < en; j++ {
			got := binary.LittleEndian.Uint32(nb[(j-st)*EntryBytes:])
			want := binary.LittleEndian.Uint32(g.edges[j*EntryBytes:])
			if got != want {
				t.Fatalf("node %d entry %d: cached %#x, file %#x", v, j-st, got, want)
			}
		}
	}
}

// TestBuildBudgetMonotone: a larger budget caches a superset of a
// smaller one (the property the device-byte monotonicity of the
// budget-sweep ablation rests on).
func TestBuildBudgetMonotone(t *testing.T) {
	degrees := make([]int64, 64)
	for i := range degrees {
		degrees[i] = int64((i*37)%29 + 1)
	}
	g := buildFake(degrees)
	var prev map[uint32]bool
	for _, limit := range []int64{200, 400, 800, 1600, 0} {
		h, err := Build(g, memctl.New(limit))
		if err != nil {
			t.Fatal(err)
		}
		cur := make(map[uint32]bool)
		for v := uint32(0); int64(v) < g.NumNodes(); v++ {
			if h.Lookup(v) != nil {
				cur[v] = true
			}
		}
		for v := range prev {
			if !cur[v] {
				t.Fatalf("budget %d dropped node %d cached at the smaller budget", limit, v)
			}
		}
		prev = cur
	}
	// Unlimited budget caches every non-isolated node.
	if len(prev) != 64 {
		t.Fatalf("unlimited budget cached %d nodes, want 64", len(prev))
	}
}

// TestBuildTinyBudget: a budget too small for even the shortest list
// yields a valid empty cache, not an error.
func TestBuildTinyBudget(t *testing.T) {
	g := buildFake([]int64{100, 200})
	h, err := Build(g, memctl.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != 0 || h.Bytes() != 0 {
		t.Fatalf("tiny budget cached %d nodes / %d bytes, want empty", h.Nodes(), h.Bytes())
	}
}

// TestNilCacheMisses: a nil *Hot is a valid always-miss cache.
func TestNilCacheMisses(t *testing.T) {
	var h *Hot
	if h.Lookup(7) != nil || h.Nodes() != 0 || h.Bytes() != 0 {
		t.Fatal("nil cache not an always-miss cache")
	}
}

// TestBuildChargesOverhead: the budget is charged for per-node
// bookkeeping, not just list bytes: an 8 B offset per list, and once the
// closing offset and the rank index — over 2 nodes one bitmap word and
// one directory entry, 8 + 8 + 4 B.
func TestBuildChargesOverhead(t *testing.T) {
	g := buildFake([]int64{2, 2})
	perRow, fixed := overhead(2, true, false)
	if perRow != 8 || fixed != 20 {
		t.Fatalf("a neighbor cache holds %d B per list and %d B once, want 8 and 20", perRow, fixed)
	}
	budget := memctl.New(2*2*EntryBytes + 2*perRow + fixed)
	h, err := Build(g, budget)
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", h.Nodes())
	}
	if budget.Used() != 2*2*EntryBytes+2*perRow+fixed {
		t.Fatalf("budget used %d, want full charge", budget.Used())
	}
	// One byte less and only one node fits.
	h, err = Build(g, memctl.New(2*2*EntryBytes+2*perRow+fixed-1))
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != 1 {
		t.Fatalf("Nodes = %d, want 1 under the reduced budget", h.Nodes())
	}
}
