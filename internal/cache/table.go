package cache

import "math/bits"

// table is a static cache's index: an open-addressed, linearly probed hash
// table from node id to row slot, kept at most half full. One entry is
// uint64(node+1)<<32 | slot, so zero means empty, no empty entry matches
// any node, and a probe that hits reads key and slot from the same word.
// The capacity is exactly twice the row count (not a power of two — the
// budget arithmetic has no room for rounding up), which is why positions
// come from a multiply-shift range reduction instead of a mask.
type table []uint64

func newTable(rows int) table { return make(table, 2*rows) }

// home is v's first probe position: a Fibonacci hash spreads the dense,
// sequential node ids, and the high bits of hash × len pick the position.
func (t table) home(v uint32) int {
	return int(uint64(v*0x9E3779B1) * uint64(len(t)) >> 32)
}

func (t table) next(i int) int {
	if i++; i == len(t) {
		return 0
	}
	return i
}

// find returns v's slot, or -1. The table must not be empty (len 0).
//
// At half load, whether the next probed entry is empty is a coin flip, so
// a loop that tests one entry at a time mispredicts on most misses. find
// therefore looks at four entries per step: a key sits before the first
// empty entry of its probe run, so a match anywhere in the window is the
// key, and "is any of the four empty" — one test on their minimum — is
// almost always yes when there is no match.
func (t table) find(v uint32) int {
	key := uint64(v) + 1
	for i := t.home(v); ; {
		if i+4 > len(t) { // the window would wrap: one entry at a time
			e := t[i]
			if e>>32 == key {
				return int(uint32(e))
			}
			if e == 0 {
				return -1
			}
			i = t.next(i)
			continue
		}
		e0, e1, e2, e3 := t[i], t[i+1], t[i+2], t[i+3]
		switch key {
		case e0 >> 32:
			return int(uint32(e0))
		case e1 >> 32:
			return int(uint32(e1))
		case e2 >> 32:
			return int(uint32(e2))
		case e3 >> 32:
			return int(uint32(e3))
		}
		if min(e0, e1, e2, e3) == 0 {
			return -1
		}
		if i += 4; i == len(t) {
			i = 0
		}
	}
}

// insert adds v → slot; v must not be present.
func (t table) insert(v uint32, slot int) {
	i := t.home(v)
	for t[i] != 0 {
		i = t.next(i)
	}
	t[i] = (uint64(v)+1)<<32 | uint64(slot)
}

// ranked is a learning cache's index: one bit per node, set when the node
// is pinned, and a rank directory. A pinned node's slot is its rank among
// the pinned nodes, so rows sit in ascending node order and the index
// holds nothing per row. dir[b] counts the pinned nodes before block b of
// blockWords words, so a lookup reads one block (a cache line) of bits.
type ranked struct {
	bits  []uint64
	dir   []uint32
	total int // pinned nodes
}

const blockWords = 8

func newRanked(numNodes int64) ranked {
	words := (numNodes + 63) / 64
	return ranked{bits: make([]uint64, words), dir: make([]uint32, (words+blockWords-1)/blockWords)}
}

// find returns v's slot, or -1.
func (r *ranked) find(v uint32) int {
	w, bit := int(v>>6), uint64(1)<<(v&63)
	if w >= len(r.bits) || r.bits[w]&bit == 0 {
		return -1
	}
	slot := int(r.dir[w/blockWords]) + bits.OnesCount64(r.bits[w]&(bit-1))
	for _, x := range r.bits[w&^(blockWords-1) : w] {
		slot += bits.OnesCount64(x)
	}
	return slot
}

// rebuild recomputes the directory after the bits changed.
func (r *ranked) rebuild() {
	r.total = 0
	for w, x := range r.bits {
		if w%blockWords == 0 {
			r.dir[w/blockWords] = uint32(r.total)
		}
		r.total += bits.OnesCount64(x)
	}
}
