package mc

import "testing"

// Reference output of SplitMix64 from state 0 (Vigna's splitmix64.c, the
// de-facto test vectors shared by the xoshiro seeding literature).
func TestSplitMix64KnownVectors(t *testing.T) {
	s := splitMix64(0)
	want := []uint64{
		0xE220A8397B1DCDAF,
		0x6E789E6AA1B965F4,
		0x06C45D188009454F,
	}
	for i, w := range want {
		if got := s.next(); got != w {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestShardSeedStableAndDistinct(t *testing.T) {
	seen := map[int64]int{}
	for shard := 0; shard < 4096; shard++ {
		s := ShardSeed(42, shard)
		if again := ShardSeed(42, shard); again != s {
			t.Fatalf("ShardSeed(42, %d) not stable: %d vs %d", shard, s, again)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("shards %d and %d collide on seed %d", prev, shard, s)
		}
		seen[s] = shard
	}
}

// Adjacent user seeds are the RunMemoryBothStored convention (seed,
// seed+1); the families they spawn must not overlap.
func TestShardSeedAdjacentUserSeeds(t *testing.T) {
	a := map[int64]bool{}
	for shard := 0; shard < 1024; shard++ {
		a[ShardSeed(7, shard)] = true
	}
	for shard := 0; shard < 1024; shard++ {
		if a[ShardSeed(8, shard)] {
			t.Fatalf("seed families 7 and 8 share shard seed at shard %d", shard)
		}
	}
}

// ShardSeed is documented as the single-element case of the DeriveSeed
// chain; the persistent store's segment seeds rely on the negative-salt
// escape hatch never colliding with it.
func TestDeriveSeedShardCompat(t *testing.T) {
	for shard := 0; shard < 256; shard++ {
		if DeriveSeed(42, int64(shard)) != ShardSeed(42, shard) {
			t.Fatalf("DeriveSeed(42, %d) diverges from ShardSeed", shard)
		}
	}
}

func TestDeriveSeedPathSensitivity(t *testing.T) {
	seen := map[int64]string{}
	add := func(label string, s int64) {
		if prev, dup := seen[s]; dup {
			t.Fatalf("paths %s and %s collide on seed %d", prev, label, s)
		}
		seen[s] = label
	}
	add("root", DeriveSeed(9))
	add("a,b", DeriveSeed(9, 3, 5))
	add("b,a", DeriveSeed(9, 5, 3)) // order matters
	add("a", DeriveSeed(9, 3))      // prefixes differ from extensions
	add("a,b,c", DeriveSeed(9, 3, 5, 0))
	add("neg", DeriveSeed(9, -7, 3)) // negative salts are their own family
	if DeriveSeed(9, 3, 5) != DeriveSeed(9, 3, 5) {
		t.Fatal("DeriveSeed not stable")
	}
}

func TestStringSeedStableAndDistinct(t *testing.T) {
	if StringSeed("surf-deformer") != StringSeed("surf-deformer") {
		t.Fatal("StringSeed not stable")
	}
	names := []string{"", "uf", "greedy", "exact", "simon-400-1000", "simon-900-1500",
		"rca-225-500", "rca-729-100", "qft-25-160", "qft-100-20", "grover-9-80", "grover-16-2"}
	seen := map[int64]string{}
	for _, n := range names {
		s := StringSeed(n)
		if prev, dup := seen[s]; dup {
			t.Fatalf("%q and %q collide", prev, n)
		}
		seen[s] = n
	}
}
