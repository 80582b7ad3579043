package cache

import (
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
// Heat and degree pack into one integer key, degree in the low degField
// bits and heat above; the id tie-break is scan order. A candidate is a
// node of the owned range with at least the source's minimum degree.
type ranking struct {
	src *source
	// degField is the width of the key's degree field: the bit length of
	// the owned range's edge count, which no degree in it exceeds, rounded
	// up to whole radix digits, so that every digit of a key is either all
	// heat or all degree.
	degField uint
	// shortFirst ranks the degree field ascending: the rows are
	// variable, so a lower degree is a lower charge.
	shortFirst bool
	// perRow is what the cache holds per pinned row besides the row.
	perRow int64
	// heat holds, per node, the folded access count above the low
	// pendingBits, which count the epoch in progress (see learner). Only
	// a learning cache has it. While nothing has been folded (maxHeat 0)
	// the key is the degree alone, and no pass reads heat.
	heat    []uint16
	maxHeat uint16 // largest folded count: bounds the key width
}

func newRanking(src *source, perRow int64) ranking {
	edges := src.offsets[src.hi] - src.offsets[src.lo]
	digits := (uint(bits.Len64(uint64(edges))) + digitBits - 1) / digitBits
	return ranking{src: src, degField: digits * digitBits, shortFirst: src.stride == 0, perRow: perRow}
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

// cutoff describes a prefix of the ranking: every candidate whose key
// ranks ahead of key, plus the first ties (by ascending id) at key.
type cutoff struct {
	key uint64
	// parts are the node ranges the select scanned; ties[i] is how many
	// candidates at key part i admits. The ties go to the lowest ids, so
	// each part takes what the parts before it left.
	parts spans
	ties  []int64
	// rows and bytes, when the select could count them, are what each
	// part admits: the rows and their bytes. They are nil when a bucket
	// admitted whole held rows of different costs.
	rows, bytes []int64
}

// digitBits is the radix of selectTop: each pass resolves this many key
// bits through a 16 KiB histogram (usually the digit below through another).
const digitBits = 11

// tally is one part's histograms in a select pass: the row cost per value
// of the digit resolved, and of the digit below for keys whose digit is 0.
type tally struct {
	hist, next [1 << digitBits]int64
}

// selectTop finds the longest prefix of the ranking whose rows fit in
// allowance bytes — exactly what a full sort followed by a charging loop
// would pick, in O(nodes) time and constant space per core. It is a
// most-significant-digit radix select on the key: each pass histograms
// the row cost per digit value among the candidates that match the
// digits already fixed, walks the buckets in rank order while they fit
// whole, and descends into the first that does not; the last
// bucket, one key and so one row cost, is cut by division. Every pass
// runs on all parts at once, each into its own tally; the walk sums them,
// and counts each part's rows where the buckets it takes allow (count).
func (r *ranking) selectTop(allowance int64) cutoff {
	c := cutoff{parts: r.src.split()}
	tallies := make([]tally, len(c.parts)-1)
	c.rows, c.bytes = make([]int64, len(tallies)), make([]int64, len(tallies))
	counted := true
	keyBits := r.degField + uint(bits.Len16(r.maxHeat))
	var top uint
	if keyBits > 0 {
		top = (keyBits - 1) / digitBits * digitBits
	}
	// Shortest first, the cut usually lands among the shortest lists: the
	// select first probes the keys below 2^digitBits, one scan of the low
	// digit, and starts over from the top digit only if they all fit.
	probe := r.shortFirst && r.maxHeat == 0 && top > 0
	shift := top
	if probe {
		shift = 0
	}
	// A scan also fills next, looking one digit ahead for the keys whose
	// current digit is 0: degrees and counts are skewed towards small
	// values, so the cut usually lands in bucket 0 of a field's upper
	// digits, and then the scan for the digit below has already been done.
	var hist [1 << digitBits]int64
	var prefix uint64
	remaining := allowance
	for scanned := false; ; {
		// A heat digit of a fixed-row source resolves without the degree:
		// the pass streams the counters and never touches the offsets.
		needDeg := shift < r.degField || r.src.minDeg > 0 || r.src.stride == 0
		// A scan can look ahead when the digit below is in the keys it
		// builds: always, unless that is the first degree digit and the
		// scan reads no degrees.
		look := !scanned && shift > 0 && (shift != r.degField || needDeg)
		if !scanned {
			c.parts.each(func(i int, lo, hi int64) {
				r.pass(&tallies[i], lo, hi, shift, prefix, look, needDeg)
			})
		}
		clear(hist[:])
		for i := range tallies {
			for d, x := range &tallies[i].hist {
				hist[d] += x
			}
		}
		// The buckets go in rank order: a degree digit of a shortest-first
		// ranking ascends, every other digit descends.
		b, step, end := len(hist)-1, -1, -1
		if r.shortFirst && shift < r.degField {
			b, step, end = 0, 1, len(hist)
		}
		for ; b != end && hist[b] <= remaining; b += step {
			remaining -= hist[b]
			counted = counted && r.count(&c, tallies, b, prefix|uint64(b)<<shift, shift)
		}
		if b == end && probe {
			probe, shift, remaining, counted = false, top, allowance, true
			clear(c.rows)
			clear(c.bytes)
			continue
		}
		if b == end {
			// Everything fits, every candidate is at or ahead of the last
			// key. (A bucket descended into did not fit, so only a first
			// pass gets here.)
			if r.shortFirst {
				c.key = 1<<r.degField - 1
			}
			c.ties = slices.Repeat([]int64{math.MaxInt64}, len(tallies))
			if !counted {
				c.rows, c.bytes = nil, nil
			}
			return c
		}
		prefix |= uint64(b) << shift
		if shift == 0 {
			break
		}
		shift -= digitBits
		if scanned = look && b == 0; scanned {
			for i := range tallies {
				tallies[i].hist = tallies[i].next
			}
		}
	}
	c.key = prefix
	deg := int64(prefix & (1<<r.degField - 1))
	cost := r.cost(deg)
	ties := remaining / cost
	c.ties = make([]int64, len(tallies))
	for i := range tallies {
		c.ties[i] = min(ties, tallies[i].hist[prefix&(1<<digitBits-1)]/cost)
		ties -= c.ties[i]
		c.rows[i] += c.ties[i]
		c.bytes[i] += c.ties[i] * r.src.rowBytes(deg)
	}
	if !counted {
		c.rows, c.bytes = nil, nil
	}
	return c
}

// count adds the rows of bucket b, key, of a pass at shift, part by part,
// to c's sizes, and reports whether it could: it divides a bucket's cost
// by its rows' when they all cost the same — fixed rows, or the one key
// of a bucket of the last digit.
func (r *ranking) count(c *cutoff, tallies []tally, b int, key uint64, shift uint) bool {
	if r.src.stride == 0 && shift > 0 {
		return false
	}
	deg := int64(key & (1<<r.degField - 1))
	cost, width := r.cost(deg), r.src.rowBytes(deg)
	for i := range tallies {
		n := tallies[i].hist[b] / cost
		c.rows[i] += n
		c.bytes[i] += n * width
	}
	return true
}

// pass is one select scan over the nodes [lo, hi): it histograms into t
// the digit at shift of every candidate key that agrees with prefix on
// the digits above it, and with look the digit below of those whose digit
// at shift is 0. needDeg is false only where the keys' degree bits are
// all below shift and every node is a candidate.
func (r *ranking) pass(t *tally, lo, hi int64, shift uint, prefix uint64, look, needDeg bool) {
	clear(t.hist[:])
	clear(t.next[:])
	above := (shift + digitBits) & 63
	wantAbove := prefix >> above
	below := (shift - digitBits) & 63
	const mask = 1<<digitBits - 1
	// Everything the loops read is a local: a store into the histograms
	// could otherwise alias the fields, and each would be reloaded per node.
	offsets, minDeg := r.src.offsets[lo:hi+1], r.src.minDeg
	perDeg, base := r.cost(1)-r.cost(0), r.cost(0)
	hist, next := &t.hist, &t.next
	if r.maxHeat == 0 && shift == 0 && prefix == 0 {
		// The keys below 2^digitBits, one per bucket, as a shortest-first
		// select's first scan asks: count them, and charge each bucket its
		// one cost after the scan.
		prev := offsets[0]
		for _, o := range offsets[1:] {
			if deg := o - prev; uint64(deg) <= mask {
				hist[deg]++
			}
			prev = o
		}
		for d := range hist {
			hist[d] *= int64(d)*perDeg + base
			if int64(d) < minDeg {
				hist[d] = 0
			}
		}
		return
	}
	if r.maxHeat == 0 {
		// The key is the degree: the pass reads the offsets alone. Inside
		// the prefix no branch depends on the degree — isolated nodes and
		// hubs are scattered all over an index, so one would mispredict —
		// instead a non-candidate adds 0, and so does a key whose digit is
		// not 0 to the lookahead.
		low, span := wantAbove<<above, uint64(1)<<above // the prefix's degrees
		for i := range hi - lo {
			deg := offsets[i+1] - offsets[i]
			if uint64(deg)-low >= span {
				continue
			}
			cost := deg*perDeg + base
			if deg < minDeg {
				cost = 0
			}
			digit, nextDigit, nextCost := uint64(deg)>>shift&mask, uint64(deg)>>below&mask, cost
			if digit != 0 {
				nextCost = 0
			}
			hist[digit] += cost
			if look {
				next[nextDigit] += nextCost
			}
		}
		return
	}
	// The heat part of the match comes first: it alone rejects most nodes
	// on a degree pass, before their degrees are read.
	heatShift, wantHeat := uint(0), prefix>>r.degField
	if shift >= r.degField {
		heatShift = (above - r.degField) & 63
		wantHeat >>= heatShift
	}
	for i, w := range r.heat[lo:hi] {
		if uint64(w>>pendingBits)>>heatShift != wantHeat {
			continue
		}
		k := uint64(w>>pendingBits) << (r.degField & 63)
		var deg int64
		if needDeg {
			deg = offsets[i+1] - offsets[i]
			if k |= uint64(deg); deg < minDeg || k>>above != wantAbove {
				continue
			}
		}
		cost := deg*perDeg + base
		digit := k >> shift & mask
		hist[digit] += cost
		if digit == 0 && look {
			next[k>>below&mask] += cost
		}
	}
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
		rows[i], bytes[i] = r.markPart(marked, c.key, lo, hi, c.ties[i], lay)
	})
	return rows, bytes
}

// markPart is mark over the nodes [lo, hi): every candidate ahead of
// key, and the first ties at it. It builds each word of marked in a
// register and hands it to lay, if any, while the word's offsets are in
// cache.
func (r *ranking) markPart(marked []uint64, key uint64, lo, hi, ties int64, lay *laying) (rows, bytes int64) {
	cutHeat, cutDeg := key>>r.degField, int64(key&(1<<r.degField-1))
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
				// cut's heat the degree decides, in the field's order, and
				// at the cut's key the id does.
				h := uint64(r.heat[u] >> pendingBits)
				if h < cutHeat {
					continue
				}
				deg := offsets[u+1] - offsets[u]
				if deg < minDeg {
					continue
				}
				if h == cutHeat {
					if deg == cutDeg {
						if ties == 0 {
							continue
						}
						ties--
					} else if deg < cutDeg != r.shortFirst {
						continue
					}
				}
				word |= 1 << (u & 63)
				degrees += deg
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
