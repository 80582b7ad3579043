package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
	return &fakeFeatures{offsets: offsetsOf(degrees), stride: stride}
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
// obvious way: every candidate, sorted by (heat per charged byte desc,
// charge asc, degree desc, id asc), where a row of degree d is charged
// cost(d).
func referenceOrder(degrees []int64, heat []uint32, minDeg int64, cost func(deg int64) int64) []uint32 {
	var cands []uint32
	for v, d := range degrees {
		if d >= minDeg {
			cands = append(cands, uint32(v))
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		ca, cb := cost(degrees[a]), cost(degrees[b])
		if heat != nil && int64(heat[a])*cb != int64(heat[b])*ca {
			return int64(heat[a])*cb > int64(heat[b])*ca
		}
		if ca != cb {
			return ca < cb
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
	for _, v := range referenceOrder(degrees, heat, minDeg, cost) {
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

// picked returns, in ascending id order, the candidates inside cutoff c
// of r over n nodes. Where the select counted each part's rows and bytes,
// they must be what mark finds there.
func picked(t *testing.T, r *ranking, c cutoff, n int) []uint32 {
	t.Helper()
	marked := make([]uint64, (n+63)/64)
	rows, bytes := r.mark(c, marked, nil)
	if c.rows != nil && (!slices.Equal(c.rows, rows) || !slices.Equal(c.bytes, bytes)) {
		t.Fatalf("the select counted %v rows of %v B per part, mark found %v of %v B", c.rows, c.bytes, rows, bytes)
	}
	var out []uint32
	for v := range n {
		if marked[v>>6]&(1<<(v&63)) != 0 {
			out = append(out, uint32(v))
		}
	}
	return out
}

// coreCounts are the GOMAXPROCS settings the select is checked at: 1, 2,
// 3 and 8 cores, whose parts' boundaries fall on different nodes.
var coreCounts = []int{1, 2, 3, 8}

// boundaries returns the part boundaries inside n nodes at every core
// count: where the select splits them.
func boundaries(n int) []int {
	var out []int
	for _, procs := range coreCounts {
		sp := splitRange(0, int64(n), partsPerCore*procs)
		for _, b := range sp[1 : len(sp)-1] {
			if 0 < b && b < int64(n) {
				out = append(out, int(b))
			}
		}
	}
	return out
}

// cutBudgets returns allowances whose cut lands at every place the
// select must get right, for the reference order over n nodes and its
// rows' costs: before the first candidate (nothing admitted), inside the
// first keys, where the order crosses from counted degrees to listed ones
// or back (the first candidate on the other side of 2^countedBits from
// the first, and half-way from there to the end), on and around every
// part boundary at every core count — where tied keys straddle it when
// the inputs put a run of ties there — and after every candidate
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
	low := func(v uint32) bool { return degrees[v] < 1<<countedBits }
	if j := slices.IndexFunc(order, func(v uint32) bool { return low(v) != low(order[0]) }); j >= 0 {
		budgets = append(budgets, fits(j+1), fits(j+2), fits((j+len(order))/2))
	}
	for _, b := range boundaries(n) {
		if j := at[b] - 1; j >= 0 {
			budgets = append(budgets, fits(j-1), fits(j), fits(j+1))
		}
	}
	return append(budgets, fits(len(order)), fits(len(order))+1)
}

// tiesAtBoundaries gives the nodes around every part boundary at every
// core count the same value, so that some cut there splits a run of ties
// between two parts.
func tiesAtBoundaries(vals []int64, value int64) {
	n := len(vals)
	for _, b := range boundaries(n) {
		for v := max(0, b-3); v < min(n, b+3); v++ {
			vals[v] = value
		}
	}
}

// TestSelectCutsMatchSort drives the select routine itself through every
// kind of cut (see cutBudgets), for neighbor lists (shortest first) and
// fixed rows, the rows over degree-only and learned keys (no list cache
// learns), at every core count: each pick must be the sort's, with runs
// of tied keys placed across every part boundary — of a counted degree,
// and of a listed one (at least 2^countedBits), whose ties the select
// credits row by row.
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
	listRow, _ := overhead(n, true, false)
	featRow, _ := overhead(n, false, true)
	// One list of over 2^22 entries, far above every other listed one.
	longLists := slices.Clone(degrees)
	longLists[n/2+1] = 4_200_000
	lists := func(d int64) int64 { return d*EntryBytes + listRow }
	rows := func(int64) int64 { return stride + featRow }
	listedTies := slices.Clone(degrees)
	tiesAtBoundaries(listedTies, 1<<countedBits)
	for _, c := range []struct {
		name    string
		src     *source
		minDeg  int64
		perRow  int64
		cost    func(deg int64) int64
		degrees []int64
		heats   [][]uint32
	}{
		{"lists", newSource(buildFake(degrees), source{minDeg: 1}), 1, listRow, lists, degrees, [][]uint32{nil}},
		{"long lists", newSource(indexOnly(offsetsOf(longLists)), source{minDeg: 1}), 1, listRow, lists, longLists, [][]uint32{nil}},
		{"rows", newSource(newFakeFeatures(degrees, stride), source{stride: stride}), 0, featRow, rows, degrees, [][]uint32{nil, counts}},
		{"lists, listed ties", newSource(buildFake(listedTies), source{minDeg: 1}), 1, listRow, lists, listedTies, [][]uint32{nil}},
		{"rows, listed ties", newSource(newFakeFeatures(listedTies, stride), source{stride: stride}), 0, featRow, rows, listedTies, [][]uint32{nil, counts}},
	} {
		degrees := c.degrees
		for _, heat := range c.heats {
			order := referenceOrder(degrees, heat, c.minDeg, c.cost)
			for _, procs := range coreCounts {
				runtime.GOMAXPROCS(procs)
				for _, allowance := range cutBudgets(order, n, degrees, c.cost) {
					r := newRanking(c.src, c.perRow)
					if heat != nil {
						r.heat = make([]uint16, n)
						for v, h := range heat {
							r.heat[v] = uint16(h) << pendingBits
							r.maxHeat = max(r.maxHeat, uint16(h))
						}
					}
					got := picked(t, &r, r.selectTop(allowance), n)
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

// featureCharge is what a feature cache over n nodes of stride bytes is
// charged per row and once under limit (0: unlimited), by the rule
// BuildFeatures states: it learns when limit is at least LearnBudget and
// below what pins every row without a learner.
func featureCharge(n int, stride, limit int64) (perRow, fixed int64, learn bool) {
	learn = limit >= LearnBudget(int64(n)) && limit < FeatureBudget(int64(n), stride, int64(n), false)
	perRow, fixed = overhead(int64(n), false, learn)
	return perRow, fixed, learn
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
		// A list costs its bytes and an 8 B offset; the cache holds the
		// closing offset and the rank index once.
		listRow, listFixed := overhead(int64(n), true, false)
		lists := func(deg int64) int64 { return deg*EntryBytes + listRow }
		total := listFixed
		for _, d := range degrees {
			if d > 0 {
				total += lists(d)
			}
		}
		limits := []int64{1, listFixed + listRow + EntryBytes, 1 + rng.Int63n(total+1), total - 1, total, 0}
		// Every kind of cut, on a few trials: each build copies the rows.
		cuts := trial%10 < 3
		if cuts {
			for _, allowance := range cutBudgets(referenceOrder(degrees, nil, 1, lists), n, degrees, lists) {
				limits = append(limits, allowance+listFixed)
			}
		}
		g := buildFake(degrees)
		for _, limit := range limits {
			if limit < 0 {
				continue
			}
			allowance := limit - listFixed
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
			if len(want) > 0 {
				charged += listFixed
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
		_, staticFixed := overhead(int64(n), false, false)
		rows := func(int64) int64 { return stride }
		limits = []int64{1, staticFixed - 1, staticFixed + stride, staticFixed + stride*int64(1+rng.Intn(n)) + int64(rng.Intn(40)), staticFixed + stride*int64(n), 0}
		if cuts {
			for _, allowance := range cutBudgets(referenceOrder(degrees, nil, 0, rows), n, degrees, rows) {
				limits = append(limits, allowance+staticFixed)
			}
		}
		for _, limit := range limits {
			perRow, fixed, learn := featureCharge(n, stride, limit)
			allowance := limit - fixed
			if limit == 0 {
				allowance = 1 << 60
			}
			f := newFakeFeatures(degrees, stride)
			h, err := BuildFeatures(f, memctl.New(limit))
			if err != nil {
				t.Fatal(err)
			}
			if h.Adaptive() != learn {
				t.Fatalf("trial %d, %d nodes, feature budget %d: adaptive %v, want %v", trial, n, limit, h.Adaptive(), learn)
			}
			want := referencePrefix(degrees, nil, 0, func(int64) int64 { return stride + perRow }, allowance)
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
	h, err := BuildFeatures(f, memctl.New(FeatureBudget(64, 16, 21, false)))
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
	h, err := BuildFeatures(f, memctl.New(FeatureBudget(int64(len(degrees)), stride, int64(rows), true)))
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != rows || !h.Adaptive() {
		t.Fatalf("pinned %d rows (adaptive %v), want %d adaptive rows", h.Nodes(), h.Adaptive(), rows)
	}
	return h, f
}

// learnCost is what a learning cache over n nodes charges per row.
func learnCost(n int, stride int64) func(int64) int64 {
	perRow, _ := overhead(int64(n), false, true)
	return func(int64) int64 { return stride + perRow }
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
	const n, stride, rows = 600, 64, 200
	degrees := tiedDegrees(rng, n)
	h, f := adaptiveFake(t, degrees, stride, rows)
	heat := make([]uint32, n)
	cost := learnCost(n, stride)
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

// TestSelectDeepKeys drives the select through degrees on both sides of
// 2^countedBits, listed ones up to 9 M, and folded counts of up to twelve
// bits — cuts among the counted degrees and among the listed ones —
// against the sort, at every core count. Sixty folds a round take the
// largest folded count past 2^11 in the third round.
func TestSelectDeepKeys(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range coreCounts {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), selectDeepKeys)
	}
}

func selectDeepKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, stride, folds = 400, 64, 60
	values := []int64{0, 1, 1, 3, 2047, 2048, 5000, 4_200_000, 4_200_001, 9_000_000}
	degrees := make([]int64, n)
	for i := range degrees {
		degrees[i] = values[rng.Intn(len(values))]
	}
	cost := learnCost(n, stride)
	heat := make([]uint32, n)
	add := make([]int, n)
	// Up to 379 of 400 rows.
	for rows := 120; rows < n; rows += 37 {
		h, f := adaptiveFake(t, degrees, stride, rows)
		clear(heat)
		if want := referencePrefix(degrees, nil, 0, cost, int64(rows)*cost(0)); !slices.Equal(pinnedSet(h, n), want) {
			t.Fatalf("%d rows: cold start differs from the sort", rows)
		}
		for round := 0; round < 3; round++ {
			// Per-epoch counts from a few values, pendingMax among them.
			for v := range add {
				add[v] = []int{0, 0, 1, 2, 2, 14, pendingMax}[rng.Intn(7)]
				heat[v] += uint32(folds * add[v])
			}
			for range folds {
				for c := range pendingMax {
					var batch []uint32
					for v, a := range add {
						if a > c {
							batch = append(batch, uint32(v))
						}
					}
					h.Count(batch)
				}
				h.Fold()
			}
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
	const n, stride, rows = 700, 64, 260
	degrees := tiedDegrees(rand.New(rand.NewSource(37)), n)
	tiesAtBoundaries(degrees, 7)
	cost := learnCost(n, stride)
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
	const n, stride = 500, 64
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
	h, _ := adaptiveFake(t, tiedDegrees(rng, n), 64, 100)
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

// TestCountersSaturate: an epoch's pending count stops at pendingMax
// instead of carrying into the folded count, and a fold that would carry
// a folded count past foldedMax first halves every folded count.
func TestCountersSaturate(t *testing.T) {
	h, _ := adaptiveFake(t, make([]int64, 300), 64, 100)
	heat := h.learn.rank.heat
	one, other := []uint32{299}, []uint32{298}
	for i := 0; i < pendingMax+10; i++ {
		h.Count(one)
	}
	if heat[299] != pendingMax {
		t.Fatalf("counter word %#x after %d counts, want %#x", heat[299], pendingMax+10, pendingMax)
	}
	h.Fold()
	if heat[299] != pendingMax<<pendingBits {
		t.Fatalf("counter word %#x after the fold, want %#x", heat[299], pendingMax<<pendingBits)
	}
	// 272 more saturated epochs take node 299 to 273 × 15 = foldedMax;
	// node 298 is counted once in each of them.
	for e := 1; e < foldedMax/pendingMax; e++ {
		for i := 0; i < pendingMax; i++ {
			h.Count(one)
		}
		h.Count(other)
		h.Fold()
	}
	if heat[299] != foldedMax<<pendingBits || heat[298] != 272<<pendingBits || h.learn.rank.maxHeat != foldedMax {
		t.Fatalf("counter words %#x, %#x (max %d) at the top, want %#x, %#x", heat[299], heat[298], h.learn.rank.maxHeat, foldedMax<<pendingBits, 272<<pendingBits)
	}
	// One more count would carry node 299 past foldedMax: 4095/2 + 1 and
	// 272/2.
	h.Count(one)
	h.Fold()
	if heat[299] != 2048<<pendingBits || heat[298] != 136<<pendingBits || h.learn.rank.maxHeat != 2048 {
		t.Fatalf("counter words %#x, %#x (max %d) after the halving fold, want %#x, %#x", heat[299], heat[298], h.learn.rank.maxHeat, 2048<<pendingBits, 136<<pendingBits)
	}
	if _, err := h.Readmit(); err != nil || h.Lookup(299) == nil || h.Lookup(298) == nil {
		t.Fatalf("the hottest nodes are not pinned (err %v)", err)
	}
}

// TestCountersKeepOrderOverLongRuns: 5,000 folds of one access pattern —
// hubs counted in every epoch, a warm set in every third — pin after
// every fold from the tenth on, the last one included, exactly what they
// pinned after the tenth. Without the halving rule the hubs' folded
// counts, then the warm set's, would stop at foldedMax and tie, and the
// degree order, which prefers the warm set, would take over (or, counts
// wrapping, the hubs would drop below the warm set).
func TestCountersKeepOrderOverLongRuns(t *testing.T) {
	const n, stride, rows = 300, 64, 100
	degrees := make([]int64, n)
	var hubs, warm []uint32
	for v := range degrees {
		switch {
		case v < 150: // cold, and first by degree
			degrees[v] = 10
		case v < 210:
			degrees[v] = 1
			hubs = append(hubs, uint32(v))
		case v < 290:
			degrees[v] = 5
			warm = append(warm, uint32(v))
		}
	}
	h, _ := adaptiveFake(t, degrees, stride, rows)
	var tenth []uint32
	for e := 1; e <= 5000; e++ {
		for range pendingMax + 5 {
			h.Count(hubs)
			if e%3 == 1 {
				h.Count(warm)
			}
		}
		h.Fold()
		if e < 10 {
			continue
		}
		if _, err := h.Readmit(); err != nil {
			t.Fatal(err)
		}
		if e == 10 {
			tenth = pinnedSet(h, n)
			// Every hub, then the warm nodes by ascending id.
			if want := slices.Concat(hubs, warm[:rows-len(hubs)]); !slices.Equal(tenth, want) {
				t.Fatalf("after 10 folds pinned %v, want %v", tenth, want)
			}
		} else if got := pinnedSet(h, n); !slices.Equal(got, tenth) {
			t.Fatalf("after %d folds pinned %v, after 10 %v", e, got, tenth)
		}
	}
	if m := h.learn.rank.maxHeat; m == 0 || m > foldedMax {
		t.Fatalf("largest folded count %d", m)
	}
}

// TestChargeEqualsHeld: every cache charges its budget exactly the bytes
// its slices hold — rows, row offsets, pinned bitmap, rank directory,
// counters and re-admission bitmap — for the neighbor cache, a static
// feature cache and an adaptive one at several budgets, before and after
// re-admissions. The selection still stops at the first row that does not
// fit, and Held reports the same bytes by component. A budget below the
// rank index's fixed cost pins nothing and charges nothing.
func TestChargeEqualsHeld(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n, stride = 1000, 32
	degrees := tiedDegrees(rng, n)
	held := func(h *Hot) int64 {
		b := int64(len(h.data)) + int64(len(h.off))*8 + int64(len(h.pinned.bits))*8 + int64(len(h.pinned.dir))*4
		if l := h.learn; l != nil {
			b += int64(len(l.rank.heat))*2 + int64(len(l.want))*8
		}
		return b
	}
	check := func(what string, limit int64, h *Hot, budget *memctl.Budget, want []uint32) {
		t.Helper()
		rows, index, learn := h.Held()
		if budget.Used() != held(h) || rows+index+learn != held(h) {
			t.Fatalf("%s, budget %d: charged %d B, slices hold %d B, Held reports %d+%d+%d", what, limit, budget.Used(), held(h), rows, index, learn)
		}
		if got := pinnedSet(h, n); !slices.Equal(got, want) {
			t.Fatalf("%s, budget %d: pinned %d rows, the prefix is %d", what, limit, len(got), len(want))
		}
		if len(want) == 0 && (budget.Used() != 0 || h.Nodes() != 0) {
			t.Fatalf("%s, budget %d: an empty cache charged %d B for %d rows", what, limit, budget.Used(), h.Nodes())
		}
	}
	listRow, listFixed := overhead(n, true, false)
	lists := func(d int64) int64 { return d*EntryBytes + listRow }
	g := buildFake(degrees)
	for _, limit := range []int64{rankBytes(n) - 1, listFixed + lists(1) - 1, listFixed + lists(1), 5000, 60_000, 1 << 40} {
		budget := memctl.New(limit)
		h, err := Build(g, budget)
		if err != nil {
			t.Fatal(err)
		}
		check("neighbor cache", limit, h, budget, referencePrefix(degrees, nil, 1, lists, limit-listFixed))
	}
	learnAt, all := LearnBudget(n), FeatureBudget(n, stride, n, false)
	_, staticFixed := overhead(n, false, false)
	for _, limit := range []int64{staticFixed - 1, staticFixed + stride - 1, staticFixed + stride, 9_999, learnAt - 1, learnAt, 30_001, all - 1, all, 1 << 40} {
		perRow, fixed, learn := featureCharge(n, stride, limit)
		budget := memctl.New(limit)
		h, err := BuildFeatures(newFakeFeatures(degrees, stride), budget)
		if err != nil {
			t.Fatal(err)
		}
		if h.Adaptive() != learn {
			t.Fatalf("feature budget %d: adaptive %v, want %v", limit, h.Adaptive(), learn)
		}
		want := referencePrefix(degrees, nil, 0, func(int64) int64 { return stride + perRow }, limit-fixed)
		check("feature cache", limit, h, budget, want)
		if !learn {
			continue
		}
		for round := 0; round < 3; round++ {
			var batch []uint32
			for v := 0; v < n; v++ {
				if rng.Intn(3) == 0 {
					batch = append(batch, uint32(v))
				}
			}
			h.Count(batch)
			h.Fold()
			if _, err := h.Readmit(); err != nil {
				t.Fatal(err)
			}
		}
		if rows, index, learnBytes := h.Held(); budget.Used() != held(h) || rows+index+learnBytes != held(h) || h.Nodes() != len(want) {
			t.Fatalf("feature budget %d: after re-admissions %d rows hold %d B, charged %d B", limit, h.Nodes(), held(h), budget.Used())
		}
	}
}

// TestLearnThreshold: a feature cache learns from LearnBudget — eight
// times its counters, re-admission bitmap and rank index — up to the
// budget under which a static cache pins every row. Every cache holds the
// rank index, so at the threshold only the learner comes out of the rows:
// the row count steps down there by the learner's bytes over the stride,
// and grows with the budget on either side. On 2,000 nodes of 32 B:
// counters 4,000 B and a 32-word bitmap 256 B make the learner 4,256 B,
// the other bitmap 256 B and a 4-entry directory 16 B the rank index
// 272 B, and LearnBudget 8 × 4,528 = 36,224 B; one byte below it the
// static cache pins (36,223 − 272) / 32 = 1,123 rows, at it the adaptive
// cache (36,224 − 4,528) / 32 = 990.
func TestLearnThreshold(t *testing.T) {
	const n, stride = 2000, 32
	f := newFakeFeatures(tiedDegrees(rand.New(rand.NewSource(47)), n), stride)
	const learnAt, rankIndex, learner = 36_224, 272, 4_256
	if got := LearnBudget(n); got != learnAt {
		t.Fatalf("LearnBudget(%d) = %d, want %d", n, got, learnAt)
	}
	pinned := func(limit int64) (int, bool) {
		h, err := BuildFeatures(f, memctl.New(limit))
		if err != nil {
			t.Fatal(err)
		}
		return h.Nodes(), h.Adaptive()
	}
	if rows, adaptive := pinned(learnAt - 1); rows != 1123 || adaptive {
		t.Fatalf("one byte below the threshold: %d rows, adaptive %v; want 1123 static rows", rows, adaptive)
	}
	if rows, adaptive := pinned(learnAt); rows != 990 || !adaptive {
		t.Fatalf("at the threshold: %d rows, adaptive %v; want 990 adaptive rows", rows, adaptive)
	}
	prev := 0
	for limit := int64(1); limit < rankIndex+n*stride+500; limit += 731 {
		wantAdaptive := limit >= learnAt && limit < rankIndex+n*stride
		want := int(min(max(limit-rankIndex, 0)/stride, n))
		if wantAdaptive {
			want = int(min((limit-rankIndex-learner)/stride, n))
		}
		rows, adaptive := pinned(limit)
		if rows != want || adaptive != wantAdaptive {
			t.Fatalf("budget %d: %d rows, adaptive %v; want %d, adaptive %v", limit, rows, adaptive, want, wantAdaptive)
		}
		if crossed := limit >= learnAt && limit-731 < learnAt; rows < prev && !crossed {
			t.Fatalf("budget %d pins %d rows, a smaller one %d", limit, rows, prev)
		}
		prev = rows
	}
	// Rows narrower than LearnBudget per node (18.1 B here) never learn: a
	// static cache pins all of them below it, at 16 B under 272 + 32,000 B.
	narrow := newFakeFeatures(tiedDegrees(rand.New(rand.NewSource(47)), n), 16)
	if h, err := BuildFeatures(narrow, memctl.New(learnAt)); err != nil || h.Nodes() != n || h.Adaptive() {
		t.Fatalf("16 B rows under LearnBudget: %d rows, adaptive %v, err %v; want all %d static", h.Nodes(), h.Adaptive(), err, n)
	}
}

// TestReadmitFillFailure: a failed fill read must never leave a row
// that answers with another node's bytes. The cache empties itself, and
// the next re-admission brings the whole set back.
func TestReadmitFillFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, stride, rows = 400, 64, 150
	degrees := tiedDegrees(rng, n)
	h, f := adaptiveFake(t, degrees, stride, rows)
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
	if got := pinnedSet(h, n); len(got) != 0 || h.Nodes() != 0 {
		t.Fatalf("%d rows still answer after a failed fill, %d reported pinned", len(got), h.Nodes())
	}
	re, err := h.Readmit()
	if err != nil || re.Admitted != rows || re.Evicted != 0 || h.Nodes() != rows {
		t.Fatalf("recovery re-admission did %+v, %v, and left %d rows pinned", re, err, h.Nodes())
	}
	heat := make([]uint32, n)
	for _, v := range cold {
		heat[v] = 1
	}
	cost := learnCost(n, stride)
	want := referencePrefix(degrees, heat, 0, cost, rows*cost(0))
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
	if h, err := BuildFeatures(f, memctl.New(FeatureBudget(300, 16, 100, false))); !errors.Is(err, errFakeRead) || h != nil {
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
	h, f := adaptiveFake(t, tiedDegrees(rng, n), 64, rows)
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

// TestRankedAgainstSorted: after every rebuild the rank index finds each
// pinned node at its position in the sorted pinned list and every other
// id, beyond the node count too, nowhere — at node counts around word
// and block boundaries, for random, empty, full and last-node-only sets.
// The static caches, the neighbor cache and a feature cache below
// LearnBudget, index their rows the same way: built at those node counts,
// each finds the sort's prefix at its ranks, with the file's bytes there.
func TestRankedAgainstSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	nodeCounts := []int{1, 63, 64, 65, 511, 512, 513, 4097}
	for _, n := range nodeCounts {
		r := newRanked(int64(n))
		for _, pinned := range []func(v int) bool{
			func(int) bool { return rng.Intn(3) == 0 },
			func(int) bool { return false },
			func(int) bool { return true },
			func(v int) bool { return v == n-1 },
			func(int) bool { return rng.Intn(2) == 0 },
		} {
			clear(r.bits)
			var sorted []uint32
			for v := 0; v < n; v++ {
				if pinned(v) {
					r.bits[v>>6] |= 1 << (v & 63)
					sorted = append(sorted, uint32(v))
				}
			}
			r.rebuild()
			if r.total != len(sorted) {
				t.Fatalf("%d nodes: total %d, %d pinned", n, r.total, len(sorted))
			}
			for v := uint32(0); v < uint32(n); v++ {
				want, ok := slices.BinarySearch(sorted, v)
				if !ok {
					want = -1
				}
				if got := r.find(v); got != want {
					t.Fatalf("%d nodes, %d pinned: find(%d) = %d, want %d", n, len(sorted), v, got, want)
				}
			}
			for _, v := range []uint32{uint32(n), uint32(len(r.bits) * 64), ^uint32(0)} {
				if got := r.find(v); got != -1 {
					t.Fatalf("%d nodes: find(%d) = %d beyond the node count", n, v, got)
				}
			}
		}
	}

	check := func(what string, n int, limit int64, h *Hot, want []uint32, row func(v uint32) []byte) {
		t.Helper()
		if h.Adaptive() || h.Nodes() != len(want) {
			t.Fatalf("%s, %d nodes, budget %d: %d rows, adaptive %v; want %d static rows", what, n, limit, h.Nodes(), h.Adaptive(), len(want))
		}
		for v := uint32(0); v < uint32(n); v++ {
			slot, ok := slices.BinarySearch(want, v)
			if !ok {
				slot = -1
			}
			if got := h.pinned.find(v); got != slot {
				t.Fatalf("%s, %d nodes, budget %d: find(%d) = %d, want %d", what, n, limit, v, got, slot)
			}
			if got := h.Lookup(v); (got == nil) != !ok || ok && !bytes.Equal(got, row(v)) {
				t.Fatalf("%s, %d nodes, budget %d: node %d's row is not the file's", what, n, limit, v)
			}
		}
		for _, v := range []uint32{uint32(n), ^uint32(0)} {
			if h.Lookup(v) != nil {
				t.Fatalf("%s, %d nodes: node %d beyond the node count hits", what, n, v)
			}
		}
	}
	const stride = 24
	for _, n := range nodeCounts {
		degrees := tiedDegrees(rng, n)
		g := buildFake(degrees)
		listRow, listFixed := overhead(int64(n), true, false)
		lists := func(d int64) int64 { return d*EntryBytes + listRow }
		all := listFixed
		for _, d := range degrees {
			if d > 0 {
				all += lists(d)
			}
		}
		for _, limit := range []int64{rankBytes(int64(n)) - 1, listFixed + (all-listFixed)/3, all} {
			h, err := Build(g, memctl.New(limit))
			if err != nil {
				t.Fatal(err)
			}
			check("neighbor cache", n, limit, h, referencePrefix(degrees, nil, 1, lists, limit-listFixed), func(v uint32) []byte {
				st, en := g.Range(v)
				return g.edges[st*EntryBytes : en*EntryBytes]
			})
		}
		f := newFakeFeatures(degrees, stride)
		_, featFixed := overhead(int64(n), false, false)
		// A third of the rows stays below LearnBudget; all of them are static.
		for _, limit := range []int64{rankBytes(int64(n)) - 1, featFixed + int64(n)*stride/3, featFixed + int64(n)*stride} {
			h, err := BuildFeatures(f, memctl.New(limit))
			if err != nil {
				t.Fatal(err)
			}
			check("feature cache", n, limit, h, referencePrefix(degrees, nil, 0, func(int64) int64 { return stride }, limit-featFixed), f.row)
		}
	}
}

// TestReadmitMovesInPlace: one re-admission evicts a run in the middle
// of the pinned ids and admits a run below them and one above, so the
// kept rows below the evicted run move right and those above it move
// left in the same call. Every row must still be its node's own, and
// each admitted run must be one read.
func TestReadmitMovesInPlace(t *testing.T) {
	const n, stride, rows = 400, 64, 120
	degrees := make([]int64, n)
	for v := 100; v < 220; v++ {
		degrees[v] = 10 // the cold start pins exactly these
	}
	h, f := adaptiveFake(t, degrees, stride, rows)
	heat := make([]uint32, n)
	var batch []uint32
	for v := range n {
		if 10 <= v && v < 30 || 100 <= v && v < 150 || 180 <= v && v < 220 || 300 <= v && v < 310 {
			batch = append(batch, uint32(v))
			heat[v] = 1
		}
	}
	h.Count(batch)
	h.Fold()
	f.reads = 0
	re, err := h.Readmit()
	if err != nil {
		t.Fatal(err)
	}
	cost := learnCost(n, stride)
	if want := referencePrefix(degrees, heat, 0, cost, rows*cost(0)); !slices.Equal(pinnedSet(h, n), want) {
		t.Fatal("pinned set differs from the reference sort's top")
	}
	assertRows(t, h, f, "after moving rows both ways")
	if re.Admitted != 30 || re.Evicted != 30 || re.Reads != 2 || re.Reads != int64(f.reads) {
		t.Fatalf("re-admission did %+v with %d reads seen; want 30 rows in, 30 out, in 2 reads", re, f.reads)
	}
}

// millionNodeCache builds an adaptive cache of 128 B rows under 32 MB
// over a million nodes of exponentially distributed degree.
func millionNodeCache(b *testing.B, rng *rand.Rand) *Hot {
	const n = 1_000_000
	degrees := make([]int64, n)
	for i := range degrees {
		degrees[i] = int64(rng.ExpFloat64() * 20)
	}
	h, err := BuildFeatures(newFakeFeatures(degrees, 128), memctl.New(32_000_000))
	if err != nil || !h.Adaptive() {
		b.Fatalf("adaptive %v, err %v", h.Adaptive(), err)
	}
	return h
}

// indexOnly is a neighbor index without an edge file: its reads fill
// nothing, which is all a lookup benchmark needs of the rows.
type indexOnly []int64

func (g indexOnly) Offsets() []int64 { return g }
func (g indexOnly) ReadBatch(_ []byte, reads []uring.Read) (moved int64, _ error) {
	for _, rd := range reads {
		moved += rd.Len
	}
	return moved, nil
}

// hubCache pins exactly 150 hub lists of 32,768 entries on a
// million-node index whose other nodes have exponentially distributed
// degree: the shape of a degree-first serving cache, a sparse bitmap.
// Build pins shortest first, so the index is set up by hand.
func hubCache(b *testing.B, rng *rand.Rand) (*Hot, []int64) {
	const n, hubs, hubDegree = 1_000_000, 150, 1 << 15
	degrees := make([]int64, n)
	for i := range degrees {
		degrees[i] = int64(rng.ExpFloat64() * 20)
	}
	h := &Hot{pinned: newRanked(n), data: make([]byte, hubs*hubDegree*EntryBytes)}
	for _, v := range rng.Perm(n)[:hubs] {
		degrees[v] = hubDegree
		h.pinned.bits[v>>6] |= 1 << (v & 63)
	}
	h.pinned.rebuild()
	for slot := range hubs + 1 {
		h.off = append(h.off, int64(slot)*hubDegree*EntryBytes)
	}
	return h, offsetsOf(degrees)
}

// rmatOffsets is the offset index of a million-node, 20M-edge
// R-MAT-shaped degree sequence: node v's degree is the edge count times
// the R-MAT probability of its id, (a+b) = 0.76 per 0 bit and (c+d) =
// 0.24 per 1 bit, rounded at random.
func rmatOffsets(rng *rand.Rand) []int64 {
	const n, edges = 1 << 20, 20_000_000
	degrees := make([]int64, n)
	for v := range degrees {
		ones := bits.OnesCount(uint(v))
		x := edges * math.Pow(0.76, float64(20-ones)) * math.Pow(0.24, float64(ones))
		degrees[v] = int64(x)
		if rng.Float64() < x-math.Floor(x) {
			degrees[v]++
		}
	}
	return offsetsOf(degrees)
}

// shortCache builds a static neighbor cache under a quarter of the edge
// bytes over rmatOffsets, so that it pins the shortest-first prefix, a
// dense bitmap.
func shortCache(b *testing.B, rng *rand.Rand) (*Hot, []int64) {
	const n = 1 << 20
	offsets := rmatOffsets(rng)
	h, err := Build(indexOnly(offsets), memctl.New(offsets[n]*EntryBytes/4))
	if err != nil || h.Nodes() < n/8 {
		b.Fatalf("pinned %d lists, err %v", h.Nodes(), err)
	}
	return h, offsets
}

// BenchmarkLookup times one Lookup on a million-node index, hits and
// misses as they come: on an adaptive cache of 128 B rows under 32 MB, of
// a uniformly random node; on a static cache of 150 hub lists and on the
// shortest-first static cache of an R-MAT-shaped graph (shortCache), of
// the source of a uniformly random edge, so that a node turns up as often
// as its degree, as in a sampled frontier.
func BenchmarkLookup(b *testing.B) {
	b.Run("learning", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		h := millionNodeCache(b, rng)
		probes := make([]uint32, 1<<16)
		for i := range probes {
			probes[i] = uint32(rng.Intn(1_000_000))
		}
		lookups(b, h, probes)
	})
	for _, c := range []struct {
		name  string
		build func(*testing.B, *rand.Rand) (*Hot, []int64)
	}{{"static-hubs", hubCache}, {"static-short", shortCache}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			h, offsets := c.build(b, rng)
			probes := make([]uint32, 1<<16)
			for i := range probes {
				e := rng.Int63n(offsets[len(offsets)-1])
				probes[i] = uint32(sort.Search(len(offsets)-1, func(v int) bool { return offsets[v+1] > e }))
			}
			lookups(b, h, probes)
		})
	}
}

// lookups times b.N Lookups cycling through probes (a power of two long).
func lookups(b *testing.B, h *Hot, probes []uint32) {
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Lookup(probes[i&(len(probes)-1)]) != nil {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// BenchmarkReadmit times one epoch-boundary re-admission on a
// million-node index: the select's scans plus the moves and fills of the
// rows a steady access pattern still changes.
func BenchmarkReadmit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := millionNodeCache(b, rng)
	epoch := trainingEpoch(rng, 1_000_000)
	epoch(h)
	if _, err := h.Readmit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		epoch(h)
		b.StartTimer()
		re, err := h.Readmit()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(re.Admitted), "rows")
	}
}

// trainingEpoch returns a function that counts one epoch of accesses to
// n nodes into a learning cache and folds it: 250 batches of 8,192 nodes,
// an eighth of each from a fixed training set of 100,000 random nodes,
// the rest skewed towards low ids, the way frontiers are.
func trainingEpoch(rng *rand.Rand, n int) func(h *Hot) {
	train := make([]uint32, 100_000)
	for i := range train {
		train[i] = uint32(rng.Intn(n))
	}
	batch := make([]uint32, 8192)
	return func(h *Hot) {
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
}

// BenchmarkSelect times the select and the marking of its prefix alone,
// without the fill, over rmatOffsets: neighbor lists under 10, 25 and 95 %
// of the edge bytes, and 128 B feature rows under a quarter of the rows'
// bytes, cold (degree-first) and learned from one trainingEpoch.
func BenchmarkSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	offsets := rmatOffsets(rng)
	n := len(offsets) - 1
	listRow, _ := overhead(int64(n), true, false)
	lists := newRanking(newSource(indexOnly(offsets), source{minDeg: 1}), listRow)
	const stride = 128
	rows := func() ranking { return newRanking(newSource(indexOnly(offsets), source{stride: stride}), 0) }
	learned := &Hot{learn: &learner{rank: rows()}}
	learned.learn.rank.heat = make([]uint16, n)
	trainingEpoch(rng, n)(learned)
	for _, c := range []struct {
		name      string
		r         ranking
		allowance int64
	}{
		{"lists-10", lists, offsets[n] * EntryBytes / 10},
		{"lists-25", lists, offsets[n] * EntryBytes / 4},
		{"lists-95", lists, offsets[n] * EntryBytes * 95 / 100},
		{"rows-25-cold", rows(), int64(n) * stride / 4},
		{"rows-25-learned", learned.learn.rank, int64(n) * stride / 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			marked := make([]uint64, (n+63)/64)
			var pinned int64
			for i := 0; i < b.N; i++ {
				clear(marked)
				rows, _ := c.r.mark(c.r.selectTop(c.allowance), marked, nil)
				pinned = 0
				for _, x := range rows {
					pinned += x
				}
			}
			b.ReportMetric(float64(pinned), "rows")
		})
	}
}
