package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"ringsampler/internal/memctl"
	"ringsampler/internal/uring"
)

// fakeFeatures is an in-memory feature file over a CSR offset index:
// node v's record is stride bytes derived from (v, position), so any
// stale or misplaced cache row is detectable. It counts reads and can
// be told to fail them.
type fakeFeatures struct {
	offsets []int64
	stride  int64
	reads   int
	failAt  int // fail the failAt-th read from now (1-based); 0: never
}

var errFakeRead = errors.New("fake feature read failed")

func (g *fakeFeatures) Offsets() []int64     { return g.offsets }
func (g *fakeFeatures) FeatureStride() int64 { return g.stride }
func (g *fakeFeatures) numNodes() int        { return len(g.offsets) - 1 }

func (g *fakeFeatures) row(v uint32) []byte {
	rec := make([]byte, g.stride)
	for j := range rec {
		rec[j] = byte(int(v)*31 + j*7 + int(v>>8))
	}
	return rec
}

func (g *fakeFeatures) FeatureReadBatch(dst []byte, reads []uring.Read) (int64, error) {
	var moved int64
	for _, rd := range reads {
		g.reads++
		if g.failAt > 0 {
			if g.failAt--; g.failAt == 0 {
				return moved, errFakeRead
			}
		}
		for p, off := dst[rd.Pos:rd.Pos+rd.Len], rd.Off; len(p) > 0; {
			v, in := uint32(off/g.stride), off%g.stride
			n := copy(p, g.row(v)[in:])
			p, off = p[n:], off+int64(n)
		}
		moved += rd.Len
	}
	return moved, nil
}

func newFakeFeatures(degrees []int64, stride int64) *fakeFeatures {
	offsets := make([]int64, len(degrees)+1)
	for i, d := range degrees {
		offsets[i+1] = offsets[i] + d
	}
	return &fakeFeatures{offsets: offsets, stride: stride}
}

// tiedDegrees draws n degrees from a handful of values, so every cut
// lands inside a run of equal keys.
func tiedDegrees(rng *rand.Rand, n int) []int64 {
	values := []int64{0, 0, 1, 1, 2, 3, 3, 7, 40, 40, 2500, 5000}
	degrees := make([]int64, n)
	for i := range degrees {
		degrees[i] = values[rng.Intn(len(values))]
	}
	return degrees
}

// referenceOrder is the order the selection must reproduce, the slow
// obvious way: every candidate, sorted by (heat desc, degree desc, id
// asc).
func referenceOrder(degrees []int64, heat []uint32, minDeg int64) []uint32 {
	var cands []uint32
	for v, d := range degrees {
		if d >= minDeg {
			cands = append(cands, uint32(v))
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if heat != nil && heat[a] != heat[b] {
			return heat[a] > heat[b]
		}
		if degrees[a] != degrees[b] {
			return degrees[a] > degrees[b]
		}
		return a < b
	})
	return cands
}

// referencePrefix charges the reference order's rows until the first
// that does not fit, and returns them in ascending id order.
func referencePrefix(degrees []int64, heat []uint32, minDeg int64, cost func(deg int64) int64, allowance int64) []uint32 {
	var picked []uint32
	for _, v := range referenceOrder(degrees, heat, minDeg) {
		c := cost(degrees[v])
		if c > allowance {
			break
		}
		allowance -= c
		picked = append(picked, v)
	}
	slices.Sort(picked)
	return picked
}

// coreCounts are the GOMAXPROCS settings the select is checked at: one
// part — the sequential select — and 2, 3 and 8 parts, whose boundaries
// fall on different nodes.
var coreCounts = []int{1, 2, 3, 8}

// cutBudgets returns allowances whose cut lands at every place the
// select must get right, for the reference order over n nodes and its
// rows' costs: before the first candidate (nothing admitted), inside the
// hottest keys, inside the low digit (the first candidate of degree
// below 2^digitBits, and half-way from there to the end), on and around
// every part boundary at every core count — where tied keys straddle it
// when the inputs put a run of ties there — and after every candidate
// (everything admitted).
func cutBudgets(order []uint32, n int, degrees []int64, cost func(deg int64) int64) []int64 {
	pre := make([]int64, len(order)+1)
	at := make([]int, n) // node → 1 + its position in order; 0: no candidate
	for j, v := range order {
		pre[j+1] = pre[j] + cost(degrees[v])
		at[v] = j + 1
	}
	// fits(j) is an allowance under which exactly the first j fit.
	fits := func(j int) int64 {
		if j = max(j, 0); j >= len(order) {
			return pre[len(order)]
		}
		return pre[j] + cost(degrees[order[j]]) - 1
	}
	budgets := []int64{fits(0), fits(1), fits(2), fits(3)}
	if j := slices.IndexFunc(order, func(v uint32) bool { return degrees[v] < 1<<digitBits }); j >= 0 {
		budgets = append(budgets, fits(j+1), fits(j+2), fits((j+len(order))/2))
	}
	for _, procs := range coreCounts {
		parts := min(procs, n)
		for k := 1; k < parts; k++ {
			if j := at[n*k/parts] - 1; j >= 0 {
				budgets = append(budgets, fits(j-1), fits(j), fits(j+1))
			}
		}
	}
	return append(budgets, fits(len(order)), fits(len(order))+1)
}

// tiesAtBoundaries gives the nodes around every part boundary at every
// core count the same value, so that some cut there splits a run of ties
// between two parts.
func tiesAtBoundaries(vals []int64, value int64) {
	n := len(vals)
	for _, procs := range coreCounts {
		for k := 1; k < min(procs, n); k++ {
			b := n * k / min(procs, n)
			for v := max(0, b-3); v < min(n, b+3); v++ {
				vals[v] = value
			}
		}
	}
}

// TestSelectCutsMatchSort drives the select routine itself through every
// kind of cut (see cutBudgets), for neighbor lists and fixed rows, over
// degree-only and learned keys, at every core count: each pick must be
// the sort's, with runs of tied keys placed across every part boundary.
func TestSelectCutsMatchSort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(31))
	const n, stride = 400, 24
	degrees := tiedDegrees(rng, n)
	tiesAtBoundaries(degrees, 7)
	counts := make([]uint32, n)
	for v := range counts {
		counts[v] = []uint32{0, 1, 1, 2, 3, 3000}[rng.Intn(6)]
		if degrees[v] == 7 { // the boundary runs stay tied under heat too
			counts[v] = 2
		}
	}
	for _, c := range []struct {
		name   string
		src    *source
		minDeg int64
		cost   func(deg int64) int64
	}{
		{"lists", newSource(buildFake(degrees), source{minDeg: 1}), 1, func(d int64) int64 { return d*EntryBytes + nodeOverheadBytes }},
		{"rows", newSource(newFakeFeatures(degrees, stride), source{stride: stride}), 0, func(int64) int64 { return stride + nodeOverheadBytes }},
	} {
		for _, heat := range [][]uint32{nil, counts} {
			order := referenceOrder(degrees, heat, c.minDeg)
			for _, procs := range coreCounts {
				runtime.GOMAXPROCS(procs)
				for _, allowance := range cutBudgets(order, n, degrees, c.cost) {
					r := newRanking(c.src)
					if heat != nil {
						r.heat = make([]uint32, n)
						for v, h := range heat {
							r.heat[v] = h << 16
							r.maxHeat = max(r.maxHeat, h)
						}
					}
					got := r.admitted(r.selectTop(allowance))
					if want := referencePrefix(degrees, heat, c.minDeg, c.cost, allowance); !slices.Equal(got, want) {
						t.Fatalf("%s, learned %v, GOMAXPROCS %d, allowance %d: picked %v, sort picks %v", c.name, heat != nil, procs, allowance, got, want)
					}
				}
			}
		}
	}
}

func pinnedSet(h *Hot, n int) []uint32 {
	var out []uint32
	for v := 0; v < n; v++ {
		if h.Lookup(uint32(v)) != nil {
			out = append(out, uint32(v))
		}
	}
	return out
}

// TestColdStartMatchesSort is the property the O(n) selection rests on:
// on random degree sequences with heavy ties, at random budgets and at
// every kind of cut (see cutBudgets), at every core count, both builders
// pin exactly the (degree desc, id asc) prefix a full sort and a charging
// loop pick, and charge exactly its cost.
func TestColdStartMatchesSort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range coreCounts {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), coldStartMatchesSort)
	}
}

func coldStartMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		degrees := tiedDegrees(rng, n)
		if trial%10 == 0 {
			for i := range degrees { // one key value for everybody
				degrees[i] = 5
			}
		}
		if trial%10 == 1 {
			tiesAtBoundaries(degrees, 7)
		}
		lists := func(deg int64) int64 { return deg*EntryBytes + nodeOverheadBytes }
		var total int64
		for _, d := range degrees {
			if d > 0 {
				total += lists(d)
			}
		}
		limits := []int64{1, nodeOverheadBytes + EntryBytes, 1 + rng.Int63n(total+1), total - 1, total, 0}
		// Every kind of cut, on a few trials: each build copies the rows.
		cuts := trial%10 < 3
		if cuts {
			limits = append(limits, cutBudgets(referenceOrder(degrees, nil, 1), n, degrees, lists)...)
		}
		g := buildFake(degrees)
		for _, limit := range limits {
			if limit < 0 {
				continue
			}
			allowance := limit
			if limit == 0 {
				allowance = 1 << 60
			}
			budget := memctl.New(limit)
			h, err := Build(g, budget)
			if err != nil {
				t.Fatal(err)
			}
			want := referencePrefix(degrees, nil, 1, lists, allowance)
			if got := pinnedSet(h, n); !slices.Equal(got, want) {
				t.Fatalf("trial %d, %d nodes, list budget %d: pinned %v, sort picks %v", trial, n, limit, got, want)
			}
			var charged int64
			for _, v := range want {
				charged += lists(degrees[v])
			}
			if budget.Used() != charged {
				t.Fatalf("trial %d, list budget %d: charged %d, the prefix costs %d", trial, limit, budget.Used(), charged)
			}
			for _, v := range want {
				if st, en := g.Range(v); !bytes.Equal(h.Lookup(v), g.edges[st*EntryBytes:en*EntryBytes]) {
					t.Fatalf("trial %d: cached list of node %d differs from the file", trial, v)
				}
			}
		}

		const stride = 24
		rows := func(int64) int64 { return stride + nodeOverheadBytes }
		limits = []int64{1, rows(0), rows(0)*int64(1+rng.Intn(n)) + int64(rng.Intn(40)), rows(0) * int64(n), 0}
		if cuts {
			limits = append(limits, cutBudgets(referenceOrder(degrees, nil, 0), n, degrees, rows)...)
		}
		for _, limit := range limits {
			allowance := limit
			if limit == 0 {
				allowance = 1 << 60
			}
			f := newFakeFeatures(degrees, stride)
			h, err := BuildFeatures(f, memctl.New(limit))
			if err != nil {
				t.Fatal(err)
			}
			want := referencePrefix(degrees, nil, 0, rows, allowance)
			if got := pinnedSet(h, n); !slices.Equal(got, want) {
				t.Fatalf("trial %d, %d nodes, feature budget %d: pinned %v, sort picks %v", trial, n, limit, got, want)
			}
			for _, v := range want {
				if !bytes.Equal(h.Lookup(v), f.row(v)) {
					t.Fatalf("trial %d: cached vector of node %d differs from the file", trial, v)
				}
			}
		}
	}
}

// TestBuildMergesAdjacentRows: rows that neighbour each other in the
// file and in the cache are filled by one read, not one each.
func TestBuildMergesAdjacentRows(t *testing.T) {
	// Nodes 10..29 are the hubs: one run. Node 50 is a run of its own.
	degrees := make([]int64, 64)
	for v := 10; v < 30; v++ {
		degrees[v] = 9
	}
	degrees[50] = 9
	f := newFakeFeatures(degrees, 16)
	h, err := BuildFeatures(f, memctl.New(21*(16+nodeOverheadBytes)))
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != 21 || f.reads != 2 {
		t.Fatalf("pinned %d rows with %d reads, want 21 rows in 2 reads", h.Nodes(), f.reads)
	}
}

// adaptiveFake builds a feature cache over n nodes that pins rows of
// them and can afford its counters.
func adaptiveFake(t *testing.T, degrees []int64, stride int64, rows int) (*Hot, *fakeFeatures) {
	t.Helper()
	f := newFakeFeatures(degrees, stride)
	h, err := BuildFeatures(f, memctl.New(int64(rows)*(stride+nodeOverheadBytes)))
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != rows || !h.Adaptive() {
		t.Fatalf("pinned %d rows (adaptive %v), want %d adaptive rows", h.Nodes(), h.Adaptive(), rows)
	}
	return h, f
}

// assertRows checks every lookup against the file: a hit must return
// exactly the node's own record.
func assertRows(t *testing.T, h *Hot, f *fakeFeatures, when string) {
	t.Helper()
	for v := 0; v < f.numNodes(); v++ {
		if row := h.Lookup(uint32(v)); row != nil && !bytes.Equal(row, f.row(uint32(v))) {
			t.Fatalf("%s: lookup of node %d returned another row's bytes", when, v)
		}
	}
}

// TestReadmitMatchesSort: after folding synthetic counts the pinned set
// is the top-N of a reference sort by (heat desc, degree desc, id asc),
// round after round, with every surviving and every admitted row intact
// and the fill accounted row for row.
func TestReadmitMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, stride, rows = 600, 24, 200
	degrees := tiedDegrees(rng, n)
	h, f := adaptiveFake(t, degrees, stride, rows)
	heat := make([]uint32, n)
	cost := func(int64) int64 { return stride + nodeOverheadBytes }
	for round := 0; round < 8; round++ {
		// A few batches over a drifting hot set, counts tied heavily.
		for b := 0; b < 5; b++ {
			var batch []uint32
			for v := 0; v < n; v++ {
				if rng.Intn(4) == 0 || (v+round*40)%n < 90 {
					batch = append(batch, uint32(v))
					heat[v]++
				}
			}
			h.Count(batch)
		}
		h.Fold()
		before := pinnedSet(h, n)
		f.reads = 0
		re, err := h.Readmit()
		if err != nil {
			t.Fatal(err)
		}
		want := referencePrefix(degrees, heat, 0, cost, rows*cost(0))
		got := pinnedSet(h, n)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: pinned set differs from the reference sort's top %d", round, rows)
		}
		assertRows(t, h, f, "after re-admission")
		stayed := 0
		for _, v := range before {
			if h.Lookup(v) != nil {
				stayed++
			}
		}
		if re.Admitted != int64(rows-stayed) || re.Evicted != re.Admitted {
			t.Fatalf("round %d: admitted %d evicted %d, but %d of %d rows stayed", round, re.Admitted, re.Evicted, stayed, rows)
		}
		if re.Bytes != re.Admitted*stride || re.Moved != re.Bytes || re.Reads != int64(f.reads) || re.Reads > re.Admitted {
			t.Fatalf("round %d: fill reported %d reads / %d B for %d rows (%d reads seen)", round, re.Reads, re.Bytes, re.Admitted, f.reads)
		}
		if round == 0 && re.Admitted == 0 {
			t.Fatal("the first re-admission changed nothing: the test exercises no swap")
		}
		// Nothing new folded: the next call is free.
		if again, err := h.Readmit(); err != nil || again != (Readmission{}) {
			t.Fatalf("round %d: idle Readmit did %+v, %v", round, again, err)
		}
	}
}

// TestSelectDeepKeys drives the select through keys of three degree
// digits and two heat digits — every combination of "the cut is in the
// bucket the scan looked ahead into" and "it is not" — against the sort,
// at every core count.
func TestSelectDeepKeys(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range coreCounts {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), selectDeepKeys)
	}
}

func selectDeepKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, stride = 400, 16
	values := []int64{0, 1, 1, 3, 2047, 2048, 5000, 4_200_000, 4_200_001, 9_000_000}
	degrees := make([]int64, n)
	for i := range degrees {
		degrees[i] = values[rng.Intn(len(values))]
	}
	cost := func(int64) int64 { return stride + nodeOverheadBytes }
	heat := make([]uint32, n)
	for rows := 120; rows < n; rows += 37 {
		h, f := adaptiveFake(t, degrees, stride, rows)
		clear(heat)
		if want := referencePrefix(degrees, nil, 0, cost, int64(rows)*cost(0)); !slices.Equal(pinnedSet(h, n), want) {
			t.Fatalf("%d rows: cold start differs from the sort", rows)
		}
		for round := 0; round < 3; round++ {
			// Counts from a few values, some beyond one 11-bit digit.
			for v := range heat {
				add := []int{0, 0, 1, 2, 2, 2100, 4100}[rng.Intn(7)]
				for c := 0; c < add; c++ {
					h.Count([]uint32{uint32(v)})
				}
				heat[v] += uint32(add)
			}
			h.Fold()
			if _, err := h.Readmit(); err != nil {
				t.Fatal(err)
			}
			if want := referencePrefix(degrees, heat, 0, cost, int64(rows)*cost(0)); !slices.Equal(pinnedSet(h, n), want) {
				t.Fatalf("%d rows, round %d: pinned set differs from the sort", rows, round)
			}
			assertRows(t, h, f, "deep keys")
		}
	}
}

// TestReadmitSameAtEveryCoreCount: one sequence of three re-admissions,
// run at every core count, pins after each round exactly the rows the
// sequential select (GOMAXPROCS 1) pins — the sort's — and fills them
// with the same reads.
func TestReadmitSameAtEveryCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n, stride, rows = 700, 16, 260
	degrees := tiedDegrees(rand.New(rand.NewSource(37)), n)
	tiesAtBoundaries(degrees, 7)
	cost := func(int64) int64 { return stride + nodeOverheadBytes }
	var sequential [][]uint32
	var fills []Readmission
	for _, procs := range coreCounts {
		runtime.GOMAXPROCS(procs)
		h, f := adaptiveFake(t, degrees, stride, rows)
		rng := rand.New(rand.NewSource(41))
		heat := make([]uint32, n)
		for round := 0; round < 3; round++ {
			var batch []uint32
			for v := range n {
				// Degree-7 nodes, the runs across the part boundaries among
				// them, are counted together and stay tied.
				if degrees[v] == 7 && round > 0 || degrees[v] != 7 && rng.Intn(3) == 0 {
					batch = append(batch, uint32(v))
					heat[v]++
				}
			}
			h.Count(batch)
			h.Fold()
			re, err := h.Readmit()
			if err != nil {
				t.Fatal(err)
			}
			got := pinnedSet(h, n)
			if procs == 1 {
				if want := referencePrefix(degrees, heat, 0, cost, rows*cost(0)); !slices.Equal(got, want) {
					t.Fatalf("round %d: the sequential select pinned %v, the sort picks %v", round, got, want)
				}
				sequential, fills = append(sequential, got), append(fills, re)
			} else if !slices.Equal(got, sequential[round]) || re != fills[round] {
				t.Fatalf("GOMAXPROCS %d, round %d: pinned %v with fill %+v; sequentially %v with %+v", procs, round, got, re, sequential[round], fills[round])
			}
			assertRows(t, h, f, "after re-admission")
		}
	}
}

// TestReadmitBudgetSuperset: under the same folded counts a larger
// budget pins a superset of a smaller one, as at cold start.
func TestReadmitBudgetSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, stride = 500, 16
	degrees := tiedDegrees(rng, n)
	var batches [][]uint32
	for b := 0; b < 6; b++ {
		var batch []uint32
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				batch = append(batch, uint32(v))
			}
		}
		batches = append(batches, batch)
	}
	var prev []uint32
	for _, rows := range []int{180, 250, 400} {
		h, _ := adaptiveFake(t, degrees, stride, rows)
		for _, b := range batches {
			h.Count(b)
		}
		h.Fold()
		if _, err := h.Readmit(); err != nil {
			t.Fatal(err)
		}
		cur := pinnedSet(h, n)
		in := make(map[uint32]bool, len(cur))
		for _, v := range cur {
			in[v] = true
		}
		for _, v := range prev {
			if !in[v] {
				t.Fatalf("%d rows dropped node %d that the smaller budget pinned", rows, v)
			}
		}
		prev = cur
	}
}

// TestDiscardFoldsNothing: counts of an epoch that did not complete
// never reach the ranking.
func TestDiscardFoldsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 300
	h, _ := adaptiveFake(t, tiedDegrees(rng, n), 16, 100)
	before := pinnedSet(h, n)
	cold := make([]uint32, 0, n)
	for v := 0; v < n; v++ {
		if h.Lookup(uint32(v)) == nil {
			cold = append(cold, uint32(v))
		}
	}
	h.Count(cold)
	h.Discard()
	h.Fold() // nothing pending: must not even mark the cache dirty
	if re, err := h.Readmit(); err != nil || re != (Readmission{}) {
		t.Fatalf("Readmit after Discard did %+v, %v", re, err)
	}
	if !slices.Equal(pinnedSet(h, n), before) {
		t.Fatal("discarded counts changed the pinned set")
	}
	// The same counts, folded, do change it.
	h.Count(cold)
	h.Fold()
	if re, err := h.Readmit(); err != nil || re.Admitted == 0 {
		t.Fatalf("Readmit after Fold did %+v, %v", re, err)
	}
}

// TestCountersSaturate: both halves of a counter stop at 65535 instead
// of wrapping into each other.
func TestCountersSaturate(t *testing.T) {
	h, _ := adaptiveFake(t, make([]int64, 300), 16, 100)
	one := []uint32{299}
	for i := 0; i < heatMax+10; i++ {
		h.Count(one)
	}
	h.Fold()
	if got := h.learn.rank.heat[299]; got != heatMax<<16 {
		t.Fatalf("counter word %#x after %d counts, want %#x", got, heatMax+10, uint32(heatMax)<<16)
	}
	h.Count(one)
	h.Fold()
	if got := h.learn.rank.heat[299]; got != heatMax<<16 || h.learn.rank.maxHeat != heatMax {
		t.Fatalf("saturated counter moved to %#x (max %d)", got, h.learn.rank.maxHeat)
	}
	if _, err := h.Readmit(); err != nil || h.Lookup(299) == nil {
		t.Fatalf("the hottest node is not pinned (err %v)", err)
	}
}

// TestStaticWhenCountersDoNotFit: the counters must fit inside the
// overhead already charged. Below that the cache is the static
// degree-first cache and the learning calls are no-ops; a cache that
// pins everything has nothing to learn either.
func TestStaticWhenCountersDoNotFit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, stride = 2000, 16
	degrees := tiedDegrees(rng, n)
	cost := func(int64) int64 { return stride + nodeOverheadBytes }
	// index 16 B/row + slot map 4 B/row + counters 4 B/node + bitmap.
	need := func(rows int) int64 { return int64(rows)*20 + int64(n)*4 + int64((n+63)/64)*8 }
	threshold := 0
	for rows := 1; rows < n; rows++ {
		if need(rows) <= int64(rows)*nodeOverheadBytes {
			threshold = rows
			break
		}
	}
	for _, rows := range []int{1, threshold - 1, threshold, n - 1, n} {
		f := newFakeFeatures(degrees, stride)
		budget := memctl.New(int64(rows) * cost(0))
		h, err := BuildFeatures(f, budget)
		if err != nil {
			t.Fatal(err)
		}
		wantAdaptive := rows >= threshold && rows < n
		if h.Nodes() != rows || h.Adaptive() != wantAdaptive {
			t.Fatalf("%d rows: pinned %d, adaptive %v, want adaptive %v", rows, h.Nodes(), h.Adaptive(), wantAdaptive)
		}
		held := h.index.bytes()
		if h.learn != nil {
			held += h.learn.bytes()
		}
		if held > int64(rows)*nodeOverheadBytes || budget.Used() != int64(rows)*cost(0) {
			t.Fatalf("%d rows: bookkeeping holds %d B, charged overhead %d B (budget used %d)", rows, held, rows*nodeOverheadBytes, budget.Used())
		}
		if wantAdaptive {
			continue
		}
		want := pinnedSet(h, n)
		if !slices.Equal(want, referencePrefix(degrees, nil, 0, cost, int64(rows)*cost(0))) {
			t.Fatalf("%d rows: static cache is not the degree-first prefix", rows)
		}
		h.Count([]uint32{1, 2, 3})
		h.Fold()
		h.Discard()
		if re, err := h.Readmit(); err != nil || re != (Readmission{}) || !slices.Equal(pinnedSet(h, n), want) {
			t.Fatalf("%d rows: a static cache re-admitted (%+v, %v)", rows, re, err)
		}
	}
}

// TestReadmitFillFailure: a failed fill read must never leave a row
// that answers with another node's bytes. The cache empties itself, and
// the next re-admission brings the whole set back.
func TestReadmitFillFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, rows = 400, 150
	degrees := tiedDegrees(rng, n)
	h, f := adaptiveFake(t, degrees, 16, rows)
	var cold []uint32
	for v := 0; v < n; v += 2 {
		cold = append(cold, uint32(v))
	}
	h.Count(cold)
	h.Fold()
	f.failAt = 3
	if _, err := h.Readmit(); !errors.Is(err, errFakeRead) {
		t.Fatalf("Readmit error %v, want the read failure", err)
	}
	if got := pinnedSet(h, n); len(got) != 0 {
		t.Fatalf("%d rows still answer after a failed fill", len(got))
	}
	re, err := h.Readmit()
	if err != nil || re.Admitted != rows || re.Evicted != 0 {
		t.Fatalf("recovery re-admission did %+v, %v", re, err)
	}
	heat := make([]uint32, n)
	for _, v := range cold {
		heat[v] = 1
	}
	want := referencePrefix(degrees, heat, 0, func(int64) int64 { return 16 + nodeOverheadBytes }, rows*(16+nodeOverheadBytes))
	if !slices.Equal(pinnedSet(h, n), want) {
		t.Fatal("recovered cache is not the reference top set")
	}
	assertRows(t, h, f, "after recovery")
}

// TestBuildFillFailure: a failed fill read at build fails the build with
// the read error; no half-filled cache is returned.
func TestBuildFillFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := newFakeFeatures(tiedDegrees(rng, 300), 16)
	f.failAt = 2
	if h, err := BuildFeatures(f, memctl.New(100*(16+nodeOverheadBytes))); !errors.Is(err, errFakeRead) || h != nil {
		t.Fatalf("BuildFeatures over a failing read returned %v, %v", h, err)
	}
}

// TestLookupDuringReadmit runs readers that hold the read lock across
// their lookups against a writer that keeps re-admitting: under -race
// this is the cache-level half of the locking contract, and every row a
// reader sees must be its node's own.
func TestLookupDuringReadmit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, rows = 512, 160
	h, f := adaptiveFake(t, tiedDegrees(rng, n), 16, rows)
	want := make([][]byte, n)
	for v := range want {
		want[v] = f.row(uint32(v))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.RLock()
				for v := r; v < n; v += 3 {
					if row := h.Lookup(uint32(v)); row != nil && !bytes.Equal(row, want[v]) {
						t.Errorf("reader saw node %d with another row's bytes", v)
					}
				}
				h.RUnlock()
			}
		}(r)
	}
	for round := 0; round < 40; round++ {
		var batch []uint32
		for v := 0; v < n; v++ {
			if (v+round*13)%7 < 3 {
				batch = append(batch, uint32(v))
			}
		}
		h.Count(batch)
		h.Fold()
		if _, err := h.Readmit(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestTableAgainstMap drives the open-addressed index through random
// inserts and removes (node 0 and wrap-around clusters included) and
// checks it against a map after every step.
func TestTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, rows := range []int{1, 2, 7, 64} {
		tab := newTable(rows)
		model := map[uint32]int{}
		free := make([]int, rows)
		for i := range free {
			free[i] = i
		}
		keys := func() uint32 { return uint32(rng.Intn(4 * rows)) }
		for step := 0; step < 4000; step++ {
			v := keys()
			if slot, ok := model[v]; ok && rng.Intn(2) == 0 {
				tab.remove(v)
				delete(model, v)
				free = append(free, slot)
			} else if !ok && len(free) > 0 {
				slot := free[len(free)-1]
				free = free[:len(free)-1]
				tab.insert(v, slot)
				model[v] = slot
			} else {
				tab.remove(keys() + uint32(8*rows)) // absent: no-op
			}
			for probe := uint32(0); probe < uint32(4*rows); probe++ {
				want, ok := model[probe]
				if !ok {
					want = -1
				}
				if got := tab.find(probe); got != want {
					t.Fatalf("rows %d step %d: find(%d) = %d, want %d", rows, step, probe, got, want)
				}
			}
		}
	}
}

// BenchmarkReadmit times one epoch-boundary re-admission on a
// million-node index: the ranking passes plus the swap of the few rows a
// steady access pattern still moves.
func BenchmarkReadmit(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(1))
	degrees := make([]int64, n)
	for i := range degrees {
		degrees[i] = int64(rng.ExpFloat64() * 20)
	}
	f := newFakeFeatures(degrees, 128)
	h, err := BuildFeatures(f, memctl.New(32_000_000))
	if err != nil || !h.Adaptive() {
		b.Fatalf("adaptive %v, err %v", h.Adaptive(), err)
	}
	train := make([]uint32, 100_000)
	for i := range train {
		train[i] = uint32(rng.Intn(n))
	}
	batch := make([]uint32, 8192)
	epoch := func() {
		for k := 0; k < 250; k++ {
			for j := range batch {
				if j < 1024 {
					batch[j] = train[rng.Intn(len(train))]
				} else {
					batch[j] = uint32(float64(n) * rng.Float64() * rng.Float64() * rng.Float64())
				}
			}
			h.Count(batch)
		}
		h.Fold()
	}
	epoch()
	if _, err := h.Readmit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		epoch()
		b.StartTimer()
		re, err := h.Readmit()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(re.Admitted), "rows")
	}
}
