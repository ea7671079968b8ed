package mc

// splitMix64 is the SplitMix64 generator (Steele, Lea & Flood, "Fast
// splittable pseudorandom number generators", OOPSLA 2014). It is the
// stream-derivation primitive of the engine: one 64-bit multiply-xorshift
// mix per output, full 2^64 period, and — crucially — the ability to derive
// statistically independent child streams from (seed, index) pairs without
// any sequential dependency between shards.
type splitMix64 uint64

const golden = 0x9E3779B97F4A7C15

func (s *splitMix64) next() uint64 {
	*s += golden
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// DeriveSeed derives a child seed from a root seed and a path of stream
// indices by chaining one SplitMix64 mix per path element. The derivation
// depends only on (seed, path) — never on scheduling, worker count, or the
// order in which other streams are derived — so any consumer that draws all
// of its randomness from a DeriveSeed-seeded RNG is deterministic under
// arbitrary parallelism. Distinct paths (including permutations and
// prefixes) yield statistically independent streams.
//
// DeriveSeed(seed, k) with k >= 0 equals ShardSeed(seed, int(k)): the
// engine's shard streams are the single-element case of the same chain.
// Callers deriving non-shard streams from a seed that also feeds the engine
// must therefore disambiguate with a leading path element that can never be
// a shard index (any negative value).
func DeriveSeed(seed int64, path ...int64) int64 {
	s := splitMix64(uint64(seed))
	acc := s.next()
	for _, p := range path {
		t := splitMix64(acc + uint64(p+1)*golden)
		acc = t.next()
	}
	return int64(acc)
}

// ShardSeed derives the RNG seed of one shard from the user seed. The
// derivation depends only on (seed, shard) — never on worker count or
// scheduling order — which is what makes engine results bit-identical for
// any parallelism. The user seed is hashed first so that adjacent seeds
// (the seed/seed+1 convention used by RunMemoryBothStored) yield uncorrelated
// shard families.
func ShardSeed(seed int64, shard int) int64 {
	return DeriveSeed(seed, int64(shard))
}

// StringSeed hashes a string into a stream index for DeriveSeed paths
// (FNV-1a), so configuration points keyed by names — benchmark programs,
// policies, schemes — can derive content-addressed streams that do not
// depend on grid position.
func StringSeed(s string) int64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 0x100000001B3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return int64(h)
}
