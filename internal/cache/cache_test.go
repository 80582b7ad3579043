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
func (g *fakeGraph) ReadBatch(reads []uring.Read) (int64, error) {
	var moved int64
	for _, rd := range reads {
		moved += int64(copy(rd.Buf, g.edges[rd.Off:]))
	}
	return moved, nil
}

// buildFake makes a graph where node v has degrees[v] neighbors, each
// entry value encoding (node, position) so cached bytes are checkable.
func buildFake(degrees []int64) *fakeGraph {
	offsets := make([]int64, len(degrees)+1)
	for i, d := range degrees {
		offsets[i+1] = offsets[i] + d
	}
	edges := make([]byte, offsets[len(degrees)]*EntryBytes)
	for v, d := range degrees {
		for j := int64(0); j < d; j++ {
			binary.LittleEndian.PutUint32(edges[(offsets[v]+j)*EntryBytes:], uint32(v)<<16|uint32(j))
		}
	}
	return &fakeGraph{offsets: offsets, edges: edges}
}

// TestBuildDegreeFirstPrefix: selection is degree-first with id
// tie-break, stops at the first candidate that does not fit, and the
// cached bytes are exactly the file bytes.
func TestBuildDegreeFirstPrefix(t *testing.T) {
	// Degrees: node 3 is hottest, then node 1, then 0 and 4 tie, node 2
	// is degree-0 and must never be cached.
	g := buildFake([]int64{4, 10, 0, 20, 4})
	// Budget fits node 3 (80B + overhead) and node 1 (40B + overhead)
	// but not node 0 (16B + overhead): prefix rule stops there even
	// though node 4 would also not fit.
	budget := memctl.New(20*EntryBytes + 10*EntryBytes + 2*nodeOverheadBytes + 8)
	h, err := Build(g, budget)
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", h.Nodes())
	}
	if h.Bytes() != 30*EntryBytes {
		t.Fatalf("Bytes = %d, want %d", h.Bytes(), 30*EntryBytes)
	}
	for _, v := range []uint32{0, 2, 4} {
		if h.Lookup(v) != nil {
			t.Fatalf("node %d unexpectedly cached", v)
		}
	}
	for _, v := range []uint32{1, 3} {
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

// TestBuildTinyBudget: a budget too small for even the hottest node
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
// bookkeeping, not just list bytes.
func TestBuildChargesOverhead(t *testing.T) {
	g := buildFake([]int64{2, 2})
	budget := memctl.New(2*2*EntryBytes + 2*nodeOverheadBytes)
	h, err := Build(g, budget)
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", h.Nodes())
	}
	if budget.Used() != 2*2*EntryBytes+2*nodeOverheadBytes {
		t.Fatalf("budget used %d, want full charge", budget.Used())
	}
	// One byte less and only one node fits.
	h, err = Build(g, memctl.New(2*2*EntryBytes+2*nodeOverheadBytes-1))
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != 1 {
		t.Fatalf("Nodes = %d, want 1 under the reduced budget", h.Nodes())
	}
}
