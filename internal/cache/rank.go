package cache

import (
	"cmp"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// ranking is the admission order over a source's candidates: measured
// heat per charged byte desc, then charge asc, degree desc and node id
// asc. Only a feature cache learns, and its rows all cost the same, so
// heat per byte orders as heat does and the charge ties: its order is
// (heat desc, degree desc, id asc). A neighbor list costs more the longer
// it is and is never measured, so its order is (degree asc, id asc):
// shortest list first, each saving a read per visit for the fewest bytes.
// A candidate is a node of the owned range with at least the source's
// minimum degree.
type ranking struct {
	src *source
	// shortFirst ranks degrees ascending: the rows are variable, so a
	// lower degree is a lower charge.
	shortFirst bool
	// perRow is what the cache holds per pinned row besides the row.
	perRow int64
	// heat holds, per node, the folded access count above the low
	// pendingBits, which count the epoch in progress (see learner). Only
	// a learning cache has it: its rows are fixed and every node is a
	// candidate. While nothing has been folded (maxHeat 0) the order is
	// by degree alone, and no scan reads heat.
	heat    []uint16
	maxHeat uint16 // largest folded count
}

func newRanking(src *source, perRow int64) ranking {
	return ranking{src: src, shortFirst: src.stride == 0, perRow: perRow}
}

// cost is what a row of a node of the given degree is charged.
func (r *ranking) cost(deg int64) int64 { return r.src.rowBytes(deg) + r.perRow }

// spans cuts a node range into contiguous parts: part i is
// [spans[i], spans[i+1]).
type spans []int64

// partsPerCore is how many parts split cuts per core: parts of equal
// size can hold very different numbers of rows (on an R-MAT graph the low
// ids hold most), and the runtime spreads many parts over the cores.
const partsPerCore = 4

// split cuts the owned range into partsPerCore parts per core
// (GOMAXPROCS; fewer when the range has fewer nodes).
func (s *source) split() spans {
	return splitRange(s.lo, s.hi, partsPerCore*runtime.GOMAXPROCS(0))
}

// splitRange cuts [lo, hi) into up to parts parts of about equal size.
// Every boundary inside the range is a multiple of 64, so no two parts
// share a word of a node bitmap; a part may be empty.
func splitRange(lo, hi int64, parts int) spans {
	n := hi - lo
	parts = max(1, min(parts, int((n+63)/64)))
	sp := make(spans, parts+1)
	for i := range sp {
		sp[i] = max(lo, (lo+n*int64(i)/int64(parts))&^63)
	}
	sp[parts] = hi
	return sp
}

// find returns the part that holds node v.
func (sp spans) find(v int64) int {
	i, _ := slices.BinarySearch(sp, v+1) // the first boundary above v
	return i - 1
}

// each runs fn on every part, concurrently, and waits for all of them.
func (sp spans) each(fn func(i int, lo, hi int64)) {
	var wg sync.WaitGroup
	for i := 1; i < len(sp)-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, sp[i], sp[i+1])
		}()
	}
	fn(0, sp[0], sp[1])
	wg.Wait()
}

// cutoff describes a prefix of the ranking: every candidate that ranks
// ahead of the key (heat, deg), plus the first ties (by ascending id) at
// it.
type cutoff struct {
	heat uint16
	deg  int64
	// parts are the node ranges the select scanned; ties[i] is how many
	// candidates at the key part i admits. The ties go to the lowest ids, so
	// each part takes what the parts before it left.
	parts spans
	ties  []int64
	// rows and bytes are what each part admits: the rows and their bytes.
	rows, bytes []int64
}

// admit counts n rows of rowBytes bytes each into part i.
func (c *cutoff) admit(i int, n, rowBytes int64) {
	c.rows[i] += n
	c.bytes[i] += n * rowBytes
}

// countedBits bounds the degrees the select counts: each degree below
// 2^countedBits has a bucket, and a candidate of higher degree is listed
// by id — a range of E edges lists at most E/2^countedBits of them.
const countedBits = 11

// tally is one part's counts in a select scan.
type tally struct {
	n    []int64 // candidates per heat, then per degree below 2^countedBits
	long []int64 // the other candidates' ids, ascending
}

// selectTop finds the longest prefix of the ranking whose rows fit in
// allowance bytes — exactly what a full sort followed by a charging loop
// would pick, in O(nodes) time — and what each part admits of it. It is a
// counting select of at most two scans, each run on all parts at once,
// each part into its own tally. A learned ranking first counts the
// candidates per heat: rows all cost the same, so whole heats are taken,
// hottest first, while they fit, and the first that does not is the
// cut's. The second scan, over the candidates at that heat (every
// candidate when nothing was measured), counts them per degree below
// 2^countedBits and lists the rest. The walk takes whole degree buckets in
// rank order while they fit, and listed rows one at a time, sorted by
// (degree, id) only when it reaches them; the first bucket or row that
// does not fit holds the cut, and a bucket's rows, all of one cost, are
// cut by division.
func (r *ranking) selectTop(allowance int64) cutoff {
	c := cutoff{parts: r.src.split()}
	tallies := make([]tally, len(c.parts)-1)
	c.rows, c.bytes = make([]int64, len(tallies)), make([]int64, len(tallies))
	c.ties = make([]int64, len(tallies))
	// Until a cut sets it, the key is the last of the order: everything
	// fits.
	if r.shortFirst {
		c.deg = math.MaxInt64
	}
	remaining := allowance
	// take admits bucket b of every tally, rows of degree deg, if they
	// all fit, and reports whether they did.
	take := func(b int, deg int64) bool {
		var n int64
		for i := range tallies {
			n += tallies[i].n[b]
		}
		if n*r.cost(deg) > remaining {
			return false
		}
		remaining -= n * r.cost(deg)
		for i := range tallies {
			c.admit(i, tallies[i].n[b], r.src.rowBytes(deg))
		}
		return true
	}
	if r.maxHeat > 0 {
		c.parts.each(func(i int, lo, hi int64) {
			n := make([]int64, r.maxHeat+1)
			for _, w := range r.heat[lo:hi] {
				n[w>>pendingBits]++
			}
			tallies[i].n = n
		})
		for c.heat = r.maxHeat; take(int(c.heat), 0); c.heat-- {
			if c.heat == 0 {
				return c.all()
			}
		}
	}
	c.parts.each(func(i int, lo, hi int64) { r.scan(&tallies[i], lo, hi, c.heat) })

	// counted walks the degree buckets in rank order, listed the listed
	// rows; each reports whether everything it walked fit.
	counted := func() bool {
		d, step := int64(1<<countedBits-1), int64(-1)
		if r.shortFirst {
			d, step = 0, 1
		}
		for ; d >= 0 && d < 1<<countedBits; d += step {
			if d >= r.src.minDeg && !take(int(d), d) {
				c.deg = d
				ties := remaining / r.cost(d)
				for i := range tallies {
					c.ties[i] = min(ties, tallies[i].n[d])
					ties -= c.ties[i]
					c.admit(i, c.ties[i], r.src.rowBytes(d))
				}
				return false
			}
		}
		return true
	}
	listed := func() bool {
		var long []int64
		for i := range tallies {
			long = append(long, tallies[i].long...)
		}
		deg := r.src.degree
		slices.SortFunc(long, func(u, v int64) int {
			o := cmp.Compare(deg(u), deg(v))
			if !r.shortFirst {
				o = -o
			}
			return cmp.Or(o, cmp.Compare(u, v))
		})
		for j, v := range long {
			d := deg(v)
			if r.cost(d) > remaining {
				// The rows taken at v's degree are the cut's ties, each
				// in its own part.
				c.deg = d
				for k := j - 1; k >= 0 && deg(long[k]) == d; k-- {
					c.ties[c.parts.find(long[k])]++
				}
				return false
			}
			remaining -= r.cost(d)
			c.admit(c.parts.find(v), 1, r.src.rowBytes(d))
		}
		return true
	}
	first, then := listed, counted
	if r.shortFirst {
		first, then = counted, listed
	}
	if first() && then() {
		return c.all()
	}
	return c
}

// all makes c admit every candidate at or ahead of its key: the select
// found that everything it walked fits.
func (c cutoff) all() cutoff {
	c.ties = slices.Repeat([]int64{math.MaxInt64}, len(c.ties))
	return c
}

// scan is the select's degree scan over the nodes [lo, hi): it counts
// into t the candidates of each degree below 2^countedBits and lists the
// others, a learned ranking's only those at heat.
func (r *ranking) scan(t *tally, lo, hi int64, heat uint16) {
	// Locals, not fields: a store into the counts could otherwise alias
	// them, and each would be reloaded per node.
	offsets, n, long := r.src.offsets[lo:hi+1], new([1 << countedBits]int64), t.long
	count := func(v int64, deg uint64) {
		if deg < 1<<countedBits {
			n[deg]++
		} else {
			long = append(long, v)
		}
	}
	if r.maxHeat == 0 {
		prev := offsets[0]
		for i, o := range offsets[1:] {
			count(lo+int64(i), uint64(o-prev))
			prev = o
		}
	} else {
		for i, w := range r.heat[lo:hi] {
			if w>>pendingBits == heat {
				count(lo+int64(i), uint64(offsets[i+1]-offsets[i]))
			}
		}
	}
	t.n, t.long = n[:], long
}

// mark sets in marked every candidate inside the cutoff, each part
// concurrently (they own whole words, see splitRange), and returns per
// part the rows it marked and their bytes. With lays, part i also lays
// out its rows through lays[i] as it marks them.
func (r *ranking) mark(c cutoff, marked []uint64, lays []laying) (rows, bytes []int64) {
	rows, bytes = make([]int64, len(c.ties)), make([]int64, len(c.ties))
	c.parts.each(func(i int, lo, hi int64) {
		var lay *laying
		if lays != nil {
			lay = &lays[i]
		}
		rows[i], bytes[i] = r.markPart(marked, c.heat, c.deg, lo, hi, c.ties[i], lay)
	})
	return rows, bytes
}

// markPart is mark over the nodes [lo, hi): every candidate ahead of
// the key (heat, deg), and the first ties at it. It builds each word of
// marked in a register and hands it to lay, if any, while the word's
// offsets are in cache.
func (r *ranking) markPart(marked []uint64, cutHeat uint16, cutDeg int64, lo, hi, ties int64, lay *laying) (rows, bytes int64) {
	offsets, minDeg := r.src.offsets, r.src.minDeg
	// With the degree for key, a candidate is ahead of the cut when its
	// degree is in [first, first+span). That is one unsigned compare and
	// no branch — which candidates are in is scattered all over an index
	// — but the rare tie's.
	first, span := max(cutDeg+1, minDeg), uint64(math.MaxInt64)
	if r.shortFirst {
		first, span = minDeg, uint64(max(cutDeg-minDeg, 0))
	}
	var degrees int64
	for v := lo; v < hi; {
		end := min(hi, v|63+1)
		var word uint64
		if r.maxHeat == 0 {
			prev, bit := offsets[v], uint64(1)<<(v&63)
			for _, o := range offsets[v+1 : end+1] {
				deg := o - prev
				prev = o
				_, in := bits.Sub64(uint64(deg-first), span, 0)
				if deg == cutDeg && deg >= minDeg && ties > 0 {
					in = 1
					ties--
				}
				word |= bit & -in
				bit <<= 1
				degrees += deg & -int64(in)
			}
		} else {
			for u := v; u < end; u++ {
				// Hotter than the cut is in whatever the degree; at the
				// cut's heat a higher degree is, and at its degree the
				// first ties.
				h := r.heat[u] >> pendingBits
				if h < cutHeat {
					continue
				}
				if deg := offsets[u+1] - offsets[u]; h == cutHeat && deg <= cutDeg {
					if deg < cutDeg || ties == 0 {
						continue
					}
					ties--
				}
				word |= 1 << (u & 63)
			}
		}
		if word != 0 {
			marked[v>>6] |= word
			rows += int64(bits.OnesCount64(word))
			if lay != nil {
				lay.word(v&^63, word)
			}
		}
		v = end
	}
	if r.src.stride > 0 {
		return rows, rows * r.src.stride
	}
	return rows, degrees * EntryBytes
}
