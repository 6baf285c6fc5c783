// Package seeded is the repository's one seeded-randomness mechanism:
// the splitmix64 stream behind every reproducible-from-a-seed claim —
// fault-campaign plans and E15 misprediction storms (faultinject),
// storage and network chaos plans (store/faultfs, resilience/chaosnet),
// retry jitter (resilience) and design-space sampling (explore) — plus
// the ordinal fault plan and fire-once armed set the two chaos layers
// share.
//
// Everything here is a pure function of its seed, unlike math/rand's
// global state, so each consumer reproduces byte for byte from a
// single uint64.
package seeded

// golden is splitmix64's state increment, 2^64 divided by the golden
// ratio.
const golden = 0x9E3779B97F4A7C15

// Mix is one splitmix64 step: the first output of a stream seeded at
// x. It is a cheap, high-quality 64-bit hash.
func Mix(x uint64) uint64 {
	z := x + golden
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Derive hashes (seed, i) into an independent value with no sequential
// state: the i-th per-run seed of a campaign, or the decision for the
// i-th event of a stream evaluated in any order.
func Derive(seed, i uint64) uint64 { return Mix(seed ^ (i+1)*golden) }

// Stream is a splitmix64 generator; its value is the generator state,
// so Stream(seed) starts a stream.
type Stream uint64

// Next returns the stream's next value.
func (s *Stream) Next() uint64 {
	v := Mix(uint64(*s))
	*s += golden
	return v
}

// Intn returns a value in [0, n); n == 0 yields 0 without advancing
// the stream. The slight modulo bias is irrelevant to every caller.
func (s *Stream) Intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return s.Next() % n
}
