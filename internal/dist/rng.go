// Package dist provides the deterministic random-number machinery and
// the probability distributions used to parameterize simulated
// perturbations (operating-system noise, message latency, bandwidth
// variation) in the message-passing graph analyzer.
//
// The paper (Section 5) treats every perturbation parameter as a random
// variable whose distribution is either (a) an analytic family fitted to
// microbenchmark output, or (b) an empirical distribution built directly
// from microbenchmark samples. Both paths are implemented here.
//
// All randomness is fully deterministic given a seed: the analyzer must
// produce identical results for identical inputs so that experiments are
// reproducible and tests can assert exact values.
package dist

import "math/bits"

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** (Blackman & Vigna). It is not safe for concurrent use;
// each simulated component owns its own RNG, forked from a parent seed,
// so that adding components never perturbs the random streams of
// existing ones.
type RNG struct {
	s [4]uint64
}

// splitMix64 is used to seed the xoshiro state from a single word, as
// recommended by the xoshiro authors.
//
//mpg:hotpath
func splitMix64(x uint64) (uint64, uint64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z = z ^ (z >> 31)
	return z, x
}

// NewRNG returns a generator seeded from the given 64-bit seed.
// Two generators with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes r in place, exactly as NewRNG(seed) would,
// without allocating. It exists for pooled replay state that re-seeds
// a fixed hierarchy of generators once per replay.
//
//mpg:hotpath
func (r *RNG) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i], x = splitMix64(x)
	}
	// xoshiro must not start from the all-zero state; splitMix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64-bit value in the stream. The body keeps
// the state in locals and rotates through the math/bits intrinsics so
// it stays under the compiler's inlining budget — every sampler fast
// path draws through here, and the per-draw call overhead is
// measurable at replay scale.
//
//mpg:hotpath
func (r *RNG) Uint64() uint64 {
	s1 := r.s[1]
	x := bits.RotateLeft64(s1*5, 7) * 9
	s2 := r.s[2] ^ r.s[0]
	s3 := r.s[3] ^ s1
	r.s[1] = s1 ^ s2
	r.s[0] ^= s3
	r.s[2] = s2 ^ (s1 << 17)
	r.s[3] = bits.RotateLeft64(s3, 45)
	return x
}

// Float64 returns a value uniformly distributed in [0, 1).
//
//mpg:hotpath
func (r *RNG) Float64() float64 {
	// 53 high bits -> [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a value uniformly distributed in (0, 1).
// Useful for inverse-CDF sampling where log(0) must be avoided.
//
//mpg:hotpath
func (r *RNG) Float64Open() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// Intn returns a value uniformly distributed in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("dist: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a value uniformly distributed in [0, n). It panics if
// n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("dist: Int63n called with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Fork derives an independent generator from this one. The child's
// stream is a deterministic function of the parent's state at the time
// of the call, so forking in a fixed order yields reproducible
// hierarchies of generators (one per rank, per link, and so on).
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// ForkNamed derives an independent generator whose stream depends on
// both the parent state and the given label, so components created in
// any order still receive stable streams as long as their labels are
// stable.
func (r *RNG) ForkNamed(label string) *RNG {
	return NewRNG(r.Uint64() ^ fnv64(label))
}

// ForkNamedInto is ForkNamed writing into an existing generator
// instead of allocating one: dst ends in exactly the state
// ForkNamed(label)'s result would have, and r advances identically.
//
//mpg:hotpath
func (r *RNG) ForkNamedInto(label string, dst *RNG) {
	dst.Reseed(r.Uint64() ^ fnv64(label))
}

// ForkHierarchyInto re-seeds a whole named-fork hierarchy in place:
// a root generator is seeded from seed, then dst[i] receives the
// named fork for labels[i], in slice order. The result is exactly
// what NewRNG(seed) followed by ForkNamed(labels[0]), ForkNamed(
// labels[1]), ... would produce — fork order matters, because every
// fork advances the root stream — but without allocating. It exists
// for pooled replay state that re-seeds a fixed generator hierarchy
// (one per rank plus shared streams) once per replay.
// It panics if len(dst) < len(labels).
//
//mpg:hotpath
func ForkHierarchyInto(seed uint64, labels []string, dst []RNG) {
	var root RNG
	root.Reseed(seed)
	for i := range labels {
		root.ForkNamedInto(labels[i], &dst[i])
	}
}

// fnv64 is the FNV-1a hash of the label, the stable component of the
// named-fork seed derivation.
//
//mpg:hotpath
func fnv64(label string) uint64 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}

// Shuffle permutes the first n elements using the supplied swap
// function (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
