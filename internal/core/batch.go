package core

// Layer holds one sampling layer of a mini-batch in CSR form: the
// frontier nodes targeted at this layer, and each node's sampled
// neighbors concatenated, delimited by Starts.
type Layer struct {
	// Targets are the frontier nodes of this layer (layer 0: the
	// caller's targets; deeper layers: the sort+dedup'd neighbors of
	// the previous layer).
	Targets []uint32
	// Starts has len(Targets)+1 entries; Neighbors[Starts[i]:Starts[i+1]]
	// are Targets[i]'s sampled neighbors.
	Starts []int64
	// Neighbors is every sampled neighbor ID, in entry-file order per
	// target.
	Neighbors []uint32
}

// NeighborsOf returns the sampled neighbors of Targets[i].
func (l *Layer) NeighborsOf(i int) []uint32 {
	return l.Neighbors[l.Starts[i]:l.Starts[i+1]]
}

// Batch is the result of sampling one mini-batch: one Layer per
// configured fanout, plus the optional feature payload when the
// feature stage ran.
type Batch struct {
	Layers []Layer

	// FeatNodes is the sorted, deduplicated union of every node in the
	// batch (layer-0 targets plus all sampled neighbors) — the nodes
	// whose feature vectors a trainer needs. Nil unless the feature
	// stage ran.
	FeatNodes []uint32
	// Features holds FeatNodes' feature vectors back to back, raw
	// little-endian f32 bytes, FeatureDim*4 bytes per node in FeatNodes
	// order. Nil unless the feature stage ran.
	Features []byte
	// FeatureDim is the per-node vector width of Features (0 when the
	// feature stage did not run).
	FeatureDim int
}

// TotalSampled returns the total number of sampled neighbor entries
// across all layers.
func (b *Batch) TotalSampled() int64 {
	var n int64
	for i := range b.Layers {
		n += int64(len(b.Layers[i].Neighbors))
	}
	return n
}

// FNV-1a, 64-bit: the parameters of hash/fnv's New64a, folded inline so
// a digest costs a multiply per byte instead of a hash.Hash call per
// word.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvU32 folds v's four little-endian bytes into h.
func fnvU32(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>16&0xff)) * fnvPrime64
	return (h ^ uint64(v>>24)) * fnvPrime64
}

// fnvU64 folds v's eight little-endian bytes into h.
func fnvU64(h uint64, v uint64) uint64 {
	return fnvU32(fnvU32(h, uint32(v)), uint32(v>>32))
}

// Digest folds the batch's complete sample structure — every layer's
// targets, starts and neighbors — into an FNV-1a sum, so any single
// differing byte changes the result. Byte-identical batches (and only
// those, modulo hash collisions) share a digest; the epoch runner's
// thread-invariance guarantee and the fault sweeps are asserted by
// comparing streams of these.
func (b *Batch) Digest() uint64 {
	h := uint64(fnvOffset64)
	for li := range b.Layers {
		l := &b.Layers[li]
		h = fnvU64(h, uint64(li))
		for _, v := range l.Targets {
			h = fnvU32(h, v)
		}
		for _, v := range l.Starts {
			h = fnvU64(h, uint64(v))
		}
		for _, v := range l.Neighbors {
			h = fnvU32(h, v)
		}
	}
	// Feature payload, when the feature stage ran. Skipped entirely for
	// feature-less batches so their digests are unchanged from before
	// the feature store existed.
	if b.FeatureDim > 0 || len(b.FeatNodes) > 0 || len(b.Features) > 0 {
		h = fnvU64(h, uint64(b.FeatureDim))
		h = fnvU64(h, uint64(len(b.FeatNodes)))
		for _, v := range b.FeatNodes {
			h = fnvU32(h, v)
		}
		for _, c := range b.Features {
			h = (h ^ uint64(c)) * fnvPrime64
		}
	}
	return h
}
