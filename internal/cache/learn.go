package cache

import "math/bits"

// learner is what makes a cache adaptive: per-node access counters and
// the bitmap Readmit re-ranks into. A feature cache has one when these
// and its rank index take at most an eighth of its budget (LearnBudget)
// and a static cache could not pin every row.
//
// Counting is two-phase so that only whole epochs are ever learned from:
// Count adds to the low pendingBits of a node's 16-bit counter word,
// Fold moves them into the folded count above (the heat the ranking
// reads), Discard drops them. The pending count saturates at pendingMax;
// sums of saturating increments do not depend on their order, so heat is
// a pure function of which batches were counted, never of which thread
// produced them or when. A fold that would carry any folded count past
// foldedMax first halves every folded count, so a long run keeps its
// order instead of collapsing into ties at the top.
//
// Count, Fold, Discard and Readmit are for one owner at a time (the
// epoch runner holds a token around them); Lookup under RLock may run
// concurrently with all of them.
type learner struct {
	rank ranking
	// want is Readmit's scratch bitmap over node ids, zero between calls.
	want []uint64
	// dirty records that a Fold changed heat since the last Readmit.
	dirty bool
}

const (
	pendingBits = 4
	pendingMax  = 1<<pendingBits - 1
	foldedMax   = 1<<(16-pendingBits) - 1
)

// learnerBytes is what a learner holds whatever its row count: a 2-byte
// counter per node and the re-admission bitmap.
func learnerBytes(numNodes int64) int64 {
	return numNodes*2 + (numNodes+63)/64*8
}

// LearnBudget is the least budget under which a feature cache over
// numNodes nodes learns: eight times its learner and rank index.
func LearnBudget(numNodes int64) int64 { return 8 * (learnerBytes(numNodes) + rankBytes(numNodes)) }

// Adaptive reports whether the cache carries access counters and
// re-ranks itself on Readmit: a feature cache under at least LearnBudget
// that is too small for a static cache to pin every row.
func (h *Hot) Adaptive() bool { return h != nil && h.learn != nil }

// Count records one access to each of nodes (ids below the node count)
// in the epoch in progress. A no-op on a static cache.
func (h *Hot) Count(nodes []uint32) {
	if !h.Adaptive() {
		return
	}
	heat := h.learn.rank.heat
	for _, v := range nodes {
		if heat[v]&pendingMax != pendingMax {
			heat[v]++
		}
	}
}

// Fold commits the counts taken since the last Fold or Discard: the
// epoch they were taken over completed, so they describe a whole,
// reproducible access pattern. The next Readmit ranks by them.
func (h *Hot) Fold() {
	if !h.Adaptive() {
		return
	}
	l, heat, halve := h.learn, h.learn.rank.heat, uint16(0)
	for v := 0; l.rank.maxHeat > foldedMax-pendingMax && v < len(heat); v++ {
		if heat[v]>>pendingBits+heat[v]&pendingMax > foldedMax {
			halve = 1
			break
		}
	}
	var top, seen uint16
	for v, w := range heat {
		folded := w>>pendingBits>>halve + w&pendingMax
		heat[v] = folded << pendingBits
		top, seen = max(top, folded), seen|w
	}
	// A fold that halves has pending counts, so it too marks heat changed.
	l.rank.maxHeat, l.dirty = top, l.dirty || seen&pendingMax != 0
}

// Discard drops the counts taken since the last Fold or Discard: the
// epoch failed or was canceled, and which of its batches ran depends on
// timing.
func (h *Hot) Discard() {
	if !h.Adaptive() {
		return
	}
	heat := h.learn.rank.heat
	for v := range heat {
		heat[v] &^= pendingMax
	}
}

// Readmission reports what one Readmit changed and what filling the
// admitted rows read from the file.
type Readmission struct {
	Admitted, Evicted int64 // rows
	Reads, Bytes      int64 // fill reads issued and the row bytes they requested
	// Moved is the bytes the fill moved from the file: Bytes, plus the
	// alignment slack of the windows an O_DIRECT source reads.
	Moved int64
}

// Readmit re-ranks the candidates by the folded heat and makes the
// pinned set the top of that order again: rows that dropped out are
// evicted, the rows that stay move in place to their new ranks, and the
// rows that came in are filled from the file at theirs. The row count
// never changes. It does nothing unless a Fold changed heat since the
// last call.
//
// If a fill read fails the cache is emptied — every lookup misses, which
// is always correct — and the next Readmit admits the full set afresh.
func (h *Hot) Readmit() (Readmission, error) {
	var res Readmission
	if !h.Adaptive() || !h.learn.dirty {
		return res, nil
	}
	l, stride := h.learn, h.stride
	src := l.rank.src
	// The rows' bytes are their whole cost: a learning cache holds nothing per row.
	l.rank.mark(l.rank.selectTop(int64(len(h.data))), l.want, nil)

	h.mu.Lock()
	defer h.mu.Unlock()
	// A kept row moves from its old rank (held: pinned nodes before it) to
	// its new one (at: wanted nodes before it). Ranks rise with ids in
	// both sets, so a row moving left only overwrites rows already moved
	// when the moves go by ascending id, and a row moving right when they
	// go by descending id. The ascending pass also plans the fill of the
	// rows that came in at their new ranks: adjacent ids merge into one read.
	move := func(from, to int) { copy(h.data[int64(to)*stride:int64(to+1)*stride], h.data[int64(from)*stride:]) }
	fill := filler{src: src, data: h.data}
	held, at := 0, 0
	for wi, w := range l.want {
		p := h.pinned.bits[wi]
		for ; w != 0; w &= w - 1 {
			if bit := w & -w; p&bit == 0 {
				v := int64(wi<<6 + bits.TrailingZeros64(w))
				fill.add(src.rowOff(v), int64(at)*stride, stride)
				res.Admitted++
			} else if from := held + bits.OnesCount64(p&(bit-1)); from > at {
				move(from, at)
			}
			at++
		}
		held += bits.OnesCount64(p)
	}
	res.Evicted = int64(held-at) + res.Admitted // held, less those kept
	for wi := len(l.want) - 1; wi >= 0; wi-- {
		p := h.pinned.bits[wi]
		held -= bits.OnesCount64(p)
		for w := l.want[wi]; w != 0; {
			bit := uint64(1) << (63 - bits.LeadingZeros64(w))
			w &^= bit
			at--
			if from := held + bits.OnesCount64(p&(bit-1)); p&bit != 0 && from < at {
				move(from, at)
			}
		}
	}
	copy(h.pinned.bits, l.want)
	clear(l.want)
	h.pinned.rebuild()
	moved, err := fill.run()
	if err != nil {
		clear(h.pinned.bits)
		h.pinned.rebuild()
		return Readmission{}, err
	}
	res.Reads, res.Bytes, res.Moved = int64(len(fill.reads)), fill.bytes, moved
	l.dirty = false
	return res, nil
}
