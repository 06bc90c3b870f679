// Package detrand is the repository's one deterministic randomness
// primitive: the SplitMix64 finalizer and increment, a SplitMix64
// Stream, the hash-to-unit-interval map and FNV-1a-64. Every seeded
// schedule (brute-force trials, generated scenarios, link and chaos
// fates, synthesis candidate order) is built from these few functions,
// each keeping its own seeding constants and draw-to-int mapping, so a
// schedule is a pure function of its seed on every machine.
//
// Nothing here allocates or reads global state, and the SplitMix64
// functions are small enough to inline into their callers' hot loops.
package detrand

// Gamma is SplitMix64's increment: the odd integer nearest 2^64/φ.
const Gamma = 0x9E3779B97F4A7C15

// Mix is the SplitMix64 output finalizer (Stafford's variant 13): a
// bijective avalanche of z.
func Mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Hash is one SplitMix64 step taken from state x, Mix(x + Gamma): a
// stateless, well-distributed hash of a composite key.
func Hash(x uint64) uint64 { return Mix(x + Gamma) }

// Stream is a SplitMix64 generator. Its zero value is the stream whose
// state starts at 0.
type Stream struct{ state uint64 }

// NewStream returns the stream whose state starts at state. Callers
// derive state from their seed with their own constants.
func NewStream(state uint64) Stream { return Stream{state: state} }

// Uint64 advances the stream and returns the next 64-bit draw.
func (s *Stream) Uint64() uint64 {
	s.state += Gamma
	return Mix(s.state)
}

// Unit maps a 64-bit hash to [0, 1) using its top 53 bits.
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// FNV64 is the 64-bit FNV-1a hash of s.
func FNV64[T ~string | ~[]byte](s T) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
