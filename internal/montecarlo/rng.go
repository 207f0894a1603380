package montecarlo

import "math/rand"

// The Monte Carlo engine draws every random number from a per-run
// SplitMix64 stream: run r of a simulation seeded with Seed s uses a
// rand.Source64 whose state is runState(s, r). This replaces the
// earlier per-shard scheme (rand.NewSource(Seed + shard*1_000_003)),
// whose additive seeds fed Go's lagged-Fibonacci generator with
// closely related initializations — nothing guaranteed the shard
// streams were uncorrelated, and the substream assignment depended on
// the shard split, so results changed with the Workers count even for
// the same global run index.
//
// Per-run derived streams fix both problems at once:
//
//   - Stream separation: runState mixes (seed, run) through the
//     SplitMix64 finalizer, an avalanching bijection, so any two
//     distinct (seed, run) pairs start at effectively independent
//     64-bit states. Two SplitMix64 streams of length L collide only
//     if their states come within L of each other on the single
//     2^64-step golden-gamma cycle: for n streams of length L the
//     overlap probability is about n²·L/2^64 (≈ 1e-9 even at a
//     million runs of a million draws each).
//
//   - Shard independence: a worker shard is just a contiguous range
//     of global run indices. Run r consumes the same stream no matter
//     which shard evaluates it, which is what lets the packed
//     bit-parallel engine (bitsim.go) replay lane r's draws in a
//     node-major loop order and still match the tests' scalar
//     reference walk, run-major, bit for bit.

// golden is the SplitMix64 state increment (2^64 / phi).
const golden = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 output finalizer, a bijection on uint64
// with full avalanche.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// runState derives the SplitMix64 starting state of run number run
// under the given user seed. Both arguments pass through mix64 so
// neighbouring seeds or run indices map to unrelated states.
func runState(seed int64, run int) uint64 {
	return mix64(mix64(uint64(seed)) + uint64(run)*golden)
}

// runSource is a SplitMix64 rand.Source64. Reseeding is a single
// store, so one source (and its wrapping rand.Rand) is reused across
// the runs of a worker — per-run streams cost no allocation.
type runSource struct {
	state uint64
}

// Uint64 advances the golden-gamma counter and finalizes it.
func (s *runSource) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Int63 implements rand.Source.
func (s *runSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source (rand.Rand.Seed calls it); the engines
// set state directly via runState.
func (s *runSource) Seed(seed int64) { s.state = uint64(seed) }

// newRunRNG returns a rand.Rand drawing from src. rand.New detects
// the Source64 and uses Uint64 directly.
func newRunRNG(src *runSource) *rand.Rand { return rand.New(src) }
