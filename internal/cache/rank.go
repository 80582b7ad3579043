package cache

import "math/bits"

// ranking is the admission order over a source's candidates: (heat desc,
// degree desc, node id asc). Heat and degree pack into one integer key —
// degree in the low degField bits, heat above — so "hotter" is "larger
// key" and the id tie-break is scan order. A candidate is a node of the
// owned range with at least the source's minimum degree.
type ranking struct {
	src *source
	// degField is the width of the key's degree field: the largest
	// degree's bit length rounded up to whole radix digits, so that every
	// digit of a key is either all heat or all degree.
	degField uint
	// heat holds, per node, the folded access count in the high 16 bits
	// and the count of the epoch in progress in the low 16 (see learner).
	// All zero — nothing measured — makes the order degree-first.
	heat    []uint32
	maxHeat uint32 // largest folded count: bounds the key width
}

func newRanking(src *source, maxDeg int64) ranking {
	digits := (uint(bits.Len64(uint64(maxDeg))) + digitBits - 1) / digitBits
	return ranking{src: src, degField: digits * digitBits, heat: make([]uint32, src.numNodes())}
}

// cost is what a row of a node of the given degree is charged.
func (r *ranking) cost(deg int64) int64 { return r.src.rowBytes(deg) + nodeOverheadBytes }

// cutoff describes a prefix of the ranking: every candidate whose key is
// above key, plus the first ties candidates (by ascending id) at key.
type cutoff struct {
	all  bool // every candidate
	key  uint64
	ties int64
}

// digitBits is the radix of selectTop: each pass resolves this many key
// bits through a 16 KiB histogram (and usually the digit below through a
// second one, see selectTop).
const digitBits = 11

// selectTop finds the longest prefix of the ranking whose rows fit in
// allowance bytes, stopping at the first candidate that does not fit —
// exactly the prefix a full sort followed by a charging loop would pick,
// in O(nodes) time and constant space. It is a most-significant-digit
// radix select on the key: each pass histograms the row cost per digit
// value among the candidates that match the digits already fixed, walks
// the buckets from the hottest down while they fit whole, and descends
// into the first that does not. A row's cost is a function of its key,
// so the last bucket — one key value — is cut by division.
func (r *ranking) selectTop(allowance int64) cutoff {
	src := r.src
	keyBits := r.degField + uint(bits.Len32(r.maxHeat))
	var shift uint
	if keyBits > 0 {
		shift = (keyBits - 1) / digitBits * digitBits
	}
	offsets, heat := src.offsets, r.heat[src.lo:src.hi]
	// hist is the current digit's histogram. next looks one digit ahead,
	// for the keys whose current digit is 0: degrees and counts are
	// skewed towards small values, so the cut usually lands in bucket 0
	// of a field's upper digits, and then the scan for the digit below
	// has already been done.
	var hist, next [1 << digitBits]int64
	var prefix uint64
	remaining := allowance
	for scanned := false; ; {
		// A heat digit of a fixed-row source resolves without the degree:
		// the pass streams the counters and never touches the offsets.
		needDeg := shift < r.degField || src.minDeg > 0 || src.stride == 0
		// A scan can look ahead when the digit below is in the keys it
		// builds: always, unless that is the first degree digit and the
		// scan reads no degrees.
		look := !scanned && shift > 0 && (shift != r.degField || needDeg)
		if !scanned {
			clear(hist[:])
			clear(next[:])
			// Keys must match prefix from this pass's digit up. The heat
			// part of that test comes first: it alone rejects most nodes on
			// a degree pass, before their degrees are read.
			above := (shift + digitBits) & 63
			wantAbove := prefix >> above
			heatShift, wantHeat := uint(0), prefix>>r.degField
			if shift >= r.degField {
				heatShift = (above - r.degField) & 63
				wantHeat >>= heatShift
			}
			for i, w := range heat {
				if uint64(w>>16)>>heatShift != wantHeat {
					continue
				}
				k := uint64(w>>16) << (r.degField & 63)
				var deg int64
				if needDeg {
					v := src.lo + int64(i)
					deg = offsets[v+1] - offsets[v]
					if k |= uint64(deg); deg < src.minDeg || k>>above != wantAbove {
						continue
					}
				}
				cost := r.cost(deg)
				digit := k >> (shift & 63) & (1<<digitBits - 1)
				hist[digit] += cost
				if digit == 0 && look {
					next[k>>((shift-digitBits)&63)&(1<<digitBits-1)] += cost
				}
			}
		}
		b := len(hist) - 1
		for ; b >= 0 && hist[b] <= remaining; b-- {
			remaining -= hist[b]
		}
		if b < 0 {
			// Only the first pass can get here: a bucket descended into did
			// not fit whole, so its sub-buckets cannot all fit either.
			return cutoff{all: true}
		}
		prefix |= uint64(b) << shift
		if shift == 0 {
			break
		}
		shift -= digitBits
		if scanned = look && b == 0; scanned {
			hist = next
		}
	}
	deg := int64(prefix & (1<<r.degField - 1))
	return cutoff{key: prefix, ties: remaining / r.cost(deg)}
}

// admitted calls fn, in ascending id order, for every candidate inside
// the cutoff.
func (r *ranking) admitted(c cutoff, fn func(v uint32)) {
	src := r.src
	cutHeat, cutDeg := c.key>>r.degField, int64(c.key&(1<<r.degField-1))
	ties := c.ties
	for i, w := range r.heat[src.lo:src.hi] {
		heat := uint64(w >> 16)
		if !c.all && heat < cutHeat {
			continue
		}
		v := src.lo + int64(i)
		deg := src.degree(v)
		if deg < src.minDeg {
			continue
		}
		// Hotter than the cut is in whatever the degree; at the cut's heat
		// the degree decides, and at the cut's key the id does.
		if !c.all && heat == cutHeat {
			if deg < cutDeg {
				continue
			}
			if deg == cutDeg {
				if ties == 0 {
					continue
				}
				ties--
			}
		}
		fn(uint32(v))
	}
}
