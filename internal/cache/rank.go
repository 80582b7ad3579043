package cache

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// ranking is the admission order over a source's candidates: (heat desc,
// degree desc, node id asc). Heat and degree pack into one integer key —
// degree in the low degField bits, heat above — so "hotter" is "larger
// key" and the id tie-break is scan order. A candidate is a node of the
// owned range with at least the source's minimum degree.
type ranking struct {
	src *source
	// degField is the width of the key's degree field: the bit length of
	// the owned range's edge count, which no degree in it exceeds, rounded
	// up to whole radix digits, so that every digit of a key is either all
	// heat or all degree.
	degField uint
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
	return ranking{src: src, degField: digits * digitBits, perRow: perRow}
}

// cost is what a row of a node of the given degree is charged.
func (r *ranking) cost(deg int64) int64 { return r.src.rowBytes(deg) + r.perRow }

// spans cuts a node range into contiguous parts: part i is
// [spans[i], spans[i+1]).
type spans []int64

// split cuts the owned range into one part per core (GOMAXPROCS, fewer
// when the range has fewer nodes).
func (s *source) split() spans {
	n := s.hi - s.lo
	parts := max(1, min(int64(runtime.GOMAXPROCS(0)), n))
	sp := make(spans, parts+1)
	for i := range sp {
		sp[i] = s.lo + n*int64(i)/parts
	}
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

// cutoff describes a prefix of the ranking: every candidate whose key is
// above key, plus the first ties (by ascending id) at key.
type cutoff struct {
	key uint64
	// parts are the node ranges the select scanned; ties[i] is how many
	// candidates at key part i admits. The ties go to the lowest ids, so
	// each part takes what the parts before it left.
	parts spans
	ties  []int64
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
// digits already fixed, walks the buckets from the hottest down while
// they fit whole, and descends into the first that does not; the last
// bucket, one key and so one row cost, is cut by division. Every pass
// runs on all parts at once, each into its own tally; the walk sums them.
func (r *ranking) selectTop(allowance int64) cutoff {
	c := cutoff{parts: r.src.split()}
	tallies := make([]tally, len(c.parts)-1)
	keyBits := r.degField + uint(bits.Len16(r.maxHeat))
	var shift uint
	if keyBits > 0 {
		shift = (keyBits - 1) / digitBits * digitBits
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
		b := len(hist) - 1
		for ; b >= 0 && hist[b] <= remaining; b-- {
			remaining -= hist[b]
		}
		if b < 0 {
			// Everything fits, every candidate is at or above key 0. (A
			// bucket descended into did not fit, so only pass one gets here.)
			c.ties = slices.Repeat([]int64{math.MaxInt64}, len(tallies))
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
	cost := r.cost(int64(prefix & (1<<r.degField - 1)))
	ties := remaining / cost
	c.ties = make([]int64, len(tallies))
	for i := range tallies {
		c.ties[i] = min(ties, tallies[i].hist[prefix&(1<<digitBits-1)]/cost)
		ties -= c.ties[i]
	}
	return c
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
			next[nextDigit] += nextCost // ignored unless look
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

// admitted returns, in ascending id order, every candidate inside the
// cutoff: each part collects its own, concurrently.
func (r *ranking) admitted(c cutoff) []uint32 {
	lists := make([][]uint32, len(c.parts)-1)
	c.parts.each(func(i int, lo, hi int64) {
		lists[i] = r.admit(c.key, lo, hi, c.ties[i])
	})
	return slices.Concat(lists...)
}

// admit is admitted over the nodes [lo, hi): every candidate above key,
// and the first ties at it.
func (r *ranking) admit(key uint64, lo, hi, ties int64) []uint32 {
	cutHeat, cutDeg := key>>r.degField, int64(key&(1<<r.degField-1))
	offsets, minDeg := r.src.offsets[lo:hi+1], r.src.minDeg
	var heat []uint16
	if r.maxHeat > 0 { // else the key is the degree
		heat = r.heat[lo:hi]
	}
	var out []uint32
	for i := range hi - lo {
		// Hotter than the cut is in whatever the degree; at the cut's heat
		// the degree decides, and at the cut's key the id does.
		var h uint64
		if heat != nil {
			if h = uint64(heat[i] >> pendingBits); h < cutHeat {
				continue
			}
		}
		deg := offsets[i+1] - offsets[i]
		// The cut's degree first: above the minimum (unless everything is
		// admitted) it rejects the isolated nodes too, in a branch that
		// mostly goes one way.
		if h == cutHeat && deg < cutDeg || deg < minDeg {
			continue
		}
		if h == cutHeat && deg == cutDeg {
			if ties == 0 {
				continue
			}
			ties--
		}
		out = append(out, uint32(lo+i))
	}
	return out
}
