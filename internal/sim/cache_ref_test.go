package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
)

// refDemCacheKey is the fmt serialization the DEM cache once keyed on,
// kept verbatim as the oracle of TestDEMCacheKeyMatchesReference: a DEMKey
// must identify two lookups exactly when these strings are equal.
func refDemCacheKey(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) string {
	fp := c.Fingerprint()
	var sb strings.Builder
	sb.Grow(len(fp) + 128)
	fmt.Fprintf(&sb, "r%d|b%d|", rounds, basis)
	sb.WriteString(fp)
	sb.WriteByte('|')
	refWriteModelFingerprint(&sb, model)
	return sb.String()
}

func refWriteModelFingerprint(sb *strings.Builder, m *noise.Model) {
	fmt.Fprintf(sb, "p1:%g,p2:%g,pm:%g,pc:%g,dr:%g,def:", m.P1, m.P2, m.PM, m.PCorrelated, m.DefectRate)
	var defs []lattice.Coord
	for q := range m.Defective {
		defs = append(defs, q)
	}
	lattice.SortCoords(defs)
	for _, q := range defs {
		fmt.Fprintf(sb, "%d.%d,", q.Row, q.Col)
	}
	if len(m.SiteRates) > 0 {
		sb.WriteString("sr:")
		sites := slices.Clone(m.SiteRates)
		sort.Slice(sites, func(i, j int) bool { return sites[i].Q.Less(sites[j].Q) })
		for _, sr := range sites {
			// Exact (hex-float) rate encoding: site rates are products of
			// quantized power-of-two multipliers and physical rates, and the
			// key must never identify two models whose rates differ in any
			// bit — nor split one overlay into two keys by formatting.
			fmt.Fprintf(sb, "%d.%d=", sr.Q.Row, sr.Q.Col)
			sb.WriteString(strconv.FormatFloat(sr.Rate, 'x', -1, 64))
			sb.WriteByte(',')
		}
	}
}

// TestDEMCacheKeyMatchesReference pins the DEMKey contract against the
// serialization it replaced: two lookups share a DEMKey exactly when their
// refDemCacheKey strings are equal. The lookups run over random codes — a
// pristine d=3 and d=5 patch, a bandaged d=3 patch and the same bandage
// rebuilt as a separate object, a hand-deformed d=5 patch and random unit
// histories — and 2,500 random models: NaN, ±Inf, −0, subnormal and huge
// rates as well as arbitrary bit patterns, negative and extreme
// coordinates, Defective sets (false entries included), 0–12 site
// overrides, and any round count and basis byte. Each model also meets
// deliberate near-pairs: another NaN payload, the other zero or a rate one
// ulp away (in a scalar and in a site override), its Defective map
// refilled in reverse insertion order, its site vector copied into fresh
// storage, and an empty map or vector in place of a nil one.
func TestDEMCacheKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	bandaged, q := bandagedCode(t, 3)
	rebuilt := freshCode(t, 3)
	if _, err := deform.BandageQubit(rebuilt, q); err != nil {
		t.Fatal(err)
	}
	codes := []*code.Code{freshCode(t, 3), freshCode(t, 5), bandaged, rebuilt, deformedCode(t)}
	for i := 0; i < 4; i++ {
		codes = append(codes, randomDeformedCode(t, rng))
	}
	fps := map[string]bool{}
	for _, c := range codes {
		fps[c.Fingerprint()] = true
	}
	if len(fps) == len(codes) {
		t.Fatal("no two codes share a fingerprint; the rebuilt bandage should")
	}

	special := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 2.5e-310, -2.5e-310, 1e-5, 1e-3, 0.5, -1e-3,
		123456789, 1e21, 1e300, math.MaxFloat64,
	}
	rate := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return math.Float64frombits(rng.Uint64()) // NaN payloads included
		default:
			return math.Ldexp(1e-3, rng.Intn(12)-4) * (1 + rng.Float64())
		}
	}
	// near returns a rate whose reference text equals r's when r is NaN
	// (another payload) and differs from it otherwise (the other zero, or
	// one ulp away).
	near := func(r float64) float64 {
		switch {
		case r != r:
			if v := math.Float64frombits(math.Float64bits(r) ^ uint64(1+rng.Intn(1<<20))); v != v {
				return v
			}
			return math.NaN()
		case r == 0:
			return math.Copysign(0, -math.Copysign(1, r))
		case math.IsInf(r, 0):
			return -r
		}
		return math.Nextafter(r, math.Inf(rng.Intn(2)*2-1))
	}
	coord := func() lattice.Coord {
		v := func() int {
			switch rng.Intn(10) {
			case 0:
				return math.MinInt
			case 1:
				return math.MaxInt
			default:
				return rng.Intn(41) - 20
			}
		}
		return lattice.Coord{Row: v(), Col: v()}
	}
	// variants returns m's near-pairs.
	variants := func(m *noise.Model) []*noise.Model {
		scalar := *m
		switch rng.Intn(5) {
		case 0:
			scalar.P1 = near(m.P1)
		case 1:
			scalar.P2 = near(m.P2)
		case 2:
			scalar.PM = near(m.PM)
		case 3:
			scalar.PCorrelated = near(m.PCorrelated)
		default:
			scalar.DefectRate = near(m.DefectRate)
		}
		reordered := *m
		if m.Defective != nil {
			var defs []lattice.Coord
			for q := range m.Defective {
				defs = append(defs, q)
			}
			lattice.SortCoords(defs)
			reordered.Defective = make(map[lattice.Coord]bool, len(defs))
			for i := len(defs) - 1; i >= 0; i-- {
				reordered.Defective[defs[i]] = m.Defective[defs[i]]
			}
		}
		site := *m
		if m.SiteRates != nil {
			reordered.SiteRates = slices.Clone(m.SiteRates)
			site.SiteRates = slices.Clone(m.SiteRates)
			if len(site.SiteRates) > 0 {
				sr := &site.SiteRates[rng.Intn(len(site.SiteRates))]
				sr.Rate = near(sr.Rate)
			}
		}
		empty := *m
		if m.Defective == nil {
			empty.Defective = map[lattice.Coord]bool{}
		}
		if m.SiteRates == nil {
			empty.SiteRates = []noise.SiteRate{}
		}
		return []*noise.Model{&scalar, &reordered, &site, &empty}
	}

	byRef := map[string]DEMKey{}
	byKey := map[DEMKey]string{}
	shared := 0
	check := func(c *code.Code, m *noise.Model, rounds int, basis lattice.CheckType) {
		t.Helper()
		key, ref := DEMKeyOf(c, m, rounds, basis), refDemCacheKey(c, m, rounds, basis)
		if k, ok := byRef[ref]; ok {
			shared++
			if k != key {
				t.Fatalf("equal reference keys, different DEMKeys:\n%+v\n%+v\nmodel %+v", k, key, m)
			}
		}
		if r, ok := byKey[key]; ok && r != ref {
			t.Fatalf("one DEMKey %+v for two reference keys:\n%q\n%q", key, r, ref)
		}
		byRef[ref], byKey[key] = key, ref
	}
	for i := 0; i < 2500; i++ {
		m := &noise.Model{P1: rate(), P2: rate(), PM: rate(), PCorrelated: rate(), DefectRate: rate()}
		if rng.Intn(3) == 0 {
			m.Defective = map[lattice.Coord]bool{}
			for j := rng.Intn(7); j > 0; j-- {
				m.Defective[coord()] = rng.Intn(4) != 0
			}
		}
		if n := rng.Intn(13); n > 0 || rng.Intn(2) == 0 {
			// A valid vector: sorted by coordinate, each coordinate once.
			m.SiteRates = make([]noise.SiteRate, 0, n)
			for j := 0; j < n; j++ {
				m.SiteRates = append(m.SiteRates, noise.SiteRate{Q: coord(), Rate: rate()})
			}
			slices.SortStableFunc(m.SiteRates, func(a, b noise.SiteRate) int { return a.Q.Compare(b.Q) })
			m.SiteRates = slices.CompactFunc(m.SiteRates, func(a, b noise.SiteRate) bool { return a.Q == b.Q })
		}
		rounds := rng.Intn(64) - 8
		if rng.Intn(50) == 0 {
			rounds = math.MinInt
		}
		basis := lattice.CheckType(rng.Intn(256))
		for _, c := range codes {
			check(c, m, rounds, basis)
		}
		c := codes[rng.Intn(len(codes))]
		for _, v := range variants(m) {
			check(c, v, rounds, basis)
		}
	}
	if shared == 0 {
		t.Fatal("no two lookups shared a reference key; the equality half is unexercised")
	}
}
