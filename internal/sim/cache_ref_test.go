package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
)

// refDemCacheKey is the fmt encoder that demCacheKey replaced, kept
// verbatim as the oracle of TestDEMCacheKeyMatchesReference. The trajectory
// engine keys its per-trajectory memo on these bytes, so the strconv
// encoder must write exactly the same key for every model.
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
		var sites []lattice.Coord
		for q := range m.SiteRates {
			sites = append(sites, q)
		}
		lattice.SortCoords(sites)
		for _, q := range sites {
			// Exact (hex-float) rate encoding: site rates are products of
			// quantized power-of-two multipliers and physical rates, and the
			// key must never identify two models whose rates differ in any
			// bit — nor split one overlay into two keys by formatting.
			fmt.Fprintf(sb, "%d.%d=", q.Row, q.Col)
			sb.WriteString(strconv.FormatFloat(m.SiteRates[q], 'x', -1, 64))
			sb.WriteByte(',')
		}
	}
}

// TestDEMCacheKeyMatchesReference pins demCacheKey byte for byte against
// refDemCacheKey over random models: NaN, ±Inf, −0, subnormal and huge
// rates as well as arbitrary bit patterns, negative and extreme
// coordinates, Defective sets (false entries included), 0–12 site
// overrides, and any round count and basis byte.
func TestDEMCacheKeyMatchesReference(t *testing.T) {
	codes := []*code.Code{freshCode(t, 3), deformedCode(t)}
	special := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 2.5e-310, -2.5e-310, 1e-5, 1e-3, 0.5, -1e-3,
		123456789, 1e21, 1e300, math.MaxFloat64,
	}
	rng := rand.New(rand.NewSource(20))
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
	for i := 0; i < 2500; i++ {
		m := &noise.Model{P1: rate(), P2: rate(), PM: rate(), PCorrelated: rate(), DefectRate: rate()}
		if rng.Intn(3) == 0 {
			m.Defective = map[lattice.Coord]bool{}
			for j := rng.Intn(7); j > 0; j-- {
				m.Defective[coord()] = rng.Intn(4) != 0
			}
		}
		if n := rng.Intn(13); n > 0 || rng.Intn(2) == 0 {
			m.SiteRates = make(map[lattice.Coord]float64, n)
			for j := 0; j < n; j++ {
				m.SiteRates[coord()] = rate()
			}
		}
		c := codes[rng.Intn(len(codes))]
		rounds := rng.Intn(64) - 8
		if rng.Intn(50) == 0 {
			rounds = math.MinInt
		}
		basis := lattice.CheckType(rng.Intn(256))
		got, want := demCacheKey(c, m, rounds, basis), refDemCacheKey(c, m, rounds, basis)
		if got != want {
			fp := c.Fingerprint()
			t.Fatalf("model %d: key %q…%q, want %q…%q", i,
				got[:strings.Index(got, fp)], got[strings.Index(got, fp)+len(fp):],
				want[:strings.Index(want, fp)], want[strings.Index(want, fp)+len(fp):])
		}
	}
}
