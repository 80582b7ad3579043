package cache

import "math/bits"

// learner is what makes a cache adaptive: per-node access counters and
// the bookkeeping Readmit needs to swap rows in place. It exists only
// when its bytes, together with the index, fit inside the
// nodeOverheadBytes already charged per pinned row.
//
// Counting is two-phase so that only whole epochs are ever learned from:
// Count adds to the low half of a node's counter word, Fold moves the
// low halves into the high halves (the heat the ranking reads), Discard
// drops them. Both halves saturate at 65535; sums of saturating
// increments do not depend on their order, so heat is a pure function of
// which batches were counted, never of which thread produced them or
// when. A node that saturates is by construction among the hottest, so
// saturation can only blur the order among nodes that are all admitted.
//
// Count, Fold, Discard and Readmit are for one owner at a time (the
// epoch runner holds a token around them); Lookup under RLock may run
// concurrently with all of them.
type learner struct {
	rank ranking
	// slotNode is the node each row slot holds; freeSlot only while
	// Readmit is re-assigning the slot, or after a failed fill.
	slotNode []uint32
	// want is Readmit's scratch bitmap over node ids, all zero between
	// calls.
	want []uint64
	// dirty records that a Fold changed heat since the last Readmit.
	dirty bool
}

const (
	freeSlot = ^uint32(0) // never a node id: node counts stop below 2^32-1
	heatMax  = 1<<16 - 1
)

// newLearner attaches counters, all zero, to the cold-start ranking of a
// cache that pinned picked into slots in that order.
func newLearner(rank ranking, picked []uint32) *learner {
	n := rank.src.numNodes()
	rank.heat = make([]uint32, n)
	return &learner{
		rank:     rank,
		slotNode: picked,
		want:     make([]uint64, (n+63)/64),
	}
}

// learnerBytes is what a learner over numNodes nodes holds for a cache of
// rows rows: the counters, the slot map and the bitmap.
func learnerBytes(numNodes, rows int64) int64 { return numNodes*4 + rows*4 + (numNodes+63)/64*8 }

func (l *learner) bytes() int64 { return learnerBytes(l.rank.src.numNodes(), int64(len(l.slotNode))) }

// Adaptive reports whether the cache carries access counters and
// re-ranks itself on Readmit. False for a nil cache, the neighbor cache,
// a cache that pins every candidate, and a feature cache whose budget is
// too small for the counters' share of the charged overhead.
func (h *Hot) Adaptive() bool { return h != nil && h.learn != nil }

// Count records one access to each of nodes (ids below the node count)
// in the epoch in progress. A no-op on a static cache.
func (h *Hot) Count(nodes []uint32) {
	if !h.Adaptive() {
		return
	}
	heat := h.learn.rank.heat
	for _, v := range nodes {
		if heat[v]&heatMax != heatMax {
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
	l := h.learn
	for v, w := range l.rank.heat {
		if pending := w & heatMax; pending != 0 {
			folded := min(w>>16+pending, heatMax)
			l.rank.heat[v] = folded << 16
			l.rank.maxHeat = max(l.rank.maxHeat, folded)
			l.dirty = true
		}
	}
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
		heat[v] &^= heatMax
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
// evicted, their slots are refilled from the file with the rows that
// came in, and nothing else is touched. The row count never changes. It
// does nothing unless a Fold changed heat since the last call.
//
// If a fill read fails the cache is emptied — every lookup misses, which
// is always correct — and the next Readmit admits the full set afresh.
func (h *Hot) Readmit() (Readmission, error) {
	var res Readmission
	if !h.Adaptive() || !h.learn.dirty {
		return res, nil
	}
	l := h.learn
	src := l.rank.src
	for _, v := range l.rank.admitted(l.rank.selectTop(int64(h.nodes) * l.rank.cost(0))) {
		l.want[v>>6] |= 1 << (v & 63)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	// A wanted row that is already held stays where it is; what is left
	// in want afterwards is exactly the rows to bring in.
	for slot, v := range l.slotNode {
		if v == freeSlot {
			continue
		}
		if w, bit := &l.want[v>>6], uint64(1)<<(v&63); *w&bit != 0 {
			*w &^= bit
			continue
		}
		h.index.remove(v)
		l.slotNode[slot] = freeSlot
		res.Evicted++
	}
	// The cache is full before and after, so there is a free slot for
	// every node still wanted. Ascending ids meet ascending slots, and
	// neighbouring pairs merge into one read; the reads go out together.
	fill := filler{src: src, data: h.data}
	slot := 0
	for wi, w := range l.want {
		for ; w != 0; w &= w - 1 {
			v := uint32(wi<<6 + bits.TrailingZeros64(w))
			for l.slotNode[slot] != freeSlot {
				slot++
			}
			l.slotNode[slot] = v
			h.index.insert(v, slot)
			fill.add(src.rowOff(int64(v)), int64(slot)*h.stride, h.stride)
			res.Admitted++
		}
		l.want[wi] = 0
	}
	moved, err := fill.run()
	if err != nil {
		clear(h.index)
		for slot := range l.slotNode {
			l.slotNode[slot] = freeSlot
		}
		return Readmission{}, err
	}
	res.Reads, res.Bytes, res.Moved = int64(len(fill.reads)), fill.bytes, moved
	l.dirty = false
	return res, nil
}
