package exp

import (
	"ringsampler/internal/sample"
)

// UniformTargets draws n uniform target nodes from [0, numNodes)
// through the caller's RNG stream. Every experiment workload routes
// target generation through here so the draw is 64-bit clean: the old
// per-site `rng.Uint32n(uint32(numNodes))` pattern silently truncated
// the node count before drawing, wrapping the target distribution on
// graphs at or above 2³² nodes. Uint64n consumes the exact RNG value
// Uint32n did for smaller counts and returns the same result, so
// every existing bench digest is unchanged; the cast back to uint32
// is safe because a drawn target is always < numNodes, and node IDs
// only exist within uint32 range. A non-positive n draws nothing.
func UniformTargets(rng *sample.RNG, numNodes int64, n int) []uint32 {
	if n <= 0 {
		return nil
	}
	targets := make([]uint32, n)
	num := uint64(numNodes)
	for i := range targets {
		targets[i] = uint32(rng.Uint64n(num))
	}
	return targets
}
