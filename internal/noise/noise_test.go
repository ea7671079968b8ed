package noise

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"surfdeformer/internal/lattice"
)

func TestUniformRates(t *testing.T) {
	m := Uniform(1e-3)
	q := lattice.Coord{Row: 1, Col: 1}
	if m.Rate1(q) != 1e-3 || m.Rate2(q, q) != 1e-3 || m.RateM(q) != 1e-3 {
		t.Error("uniform model must report p everywhere")
	}
	if m.IsDefective(q) {
		t.Error("uniform model has no defects")
	}
}

func TestDefectOverrides(t *testing.T) {
	hot := lattice.Coord{Row: 3, Col: 3}
	cold := lattice.Coord{Row: 1, Col: 1}
	m := Uniform(1e-3).WithDefects([]lattice.Coord{hot}, 0.5)
	if got := m.Rate1(hot); got != 0.5 {
		t.Errorf("defective Rate1 = %v, want 0.5", got)
	}
	if got := m.Rate1(cold); got != 1e-3 {
		t.Errorf("healthy Rate1 = %v, want 1e-3", got)
	}
	// Two-qubit gates touching a defective qubit inherit the defect rate.
	if got := m.Rate2(hot, cold); got != 0.5 {
		t.Errorf("Rate2 hot-cold = %v, want 0.5", got)
	}
	if got := m.Rate2(cold, cold); got != 1e-3 {
		t.Errorf("Rate2 cold-cold = %v", got)
	}
	if got := m.RateM(hot); got != 0.5 {
		t.Errorf("RateM hot = %v", got)
	}
}

func TestWithDefectsIsCopy(t *testing.T) {
	base := Uniform(1e-3)
	hot := lattice.Coord{Row: 3, Col: 3}
	derived := base.WithDefects([]lattice.Coord{hot}, 0.5)
	if base.IsDefective(hot) {
		t.Error("WithDefects must not mutate the base model")
	}
	if !derived.IsDefective(hot) {
		t.Error("derived model must carry the defect")
	}
}

func TestSiteRateOverrides(t *testing.T) {
	warm := lattice.Coord{Row: 3, Col: 3} // drifted: 1e-2
	hot := lattice.Coord{Row: 5, Col: 5}  // leaked neighbour: 0.25
	cold := lattice.Coord{Row: 1, Col: 1}
	m := Uniform(1e-3).WithSiteRates([]SiteRate{{warm, 1e-2}, {hot, 0.25}})
	if got := m.Rate1(warm); got != 1e-2 {
		t.Errorf("Rate1(warm) = %v, want 1e-2", got)
	}
	if got := m.RateM(hot); got != 0.25 {
		t.Errorf("RateM(hot) = %v, want 0.25", got)
	}
	if got := m.Rate1(cold); got != 1e-3 {
		t.Errorf("Rate1(cold) = %v, want base", got)
	}
	// Two-qubit gates take the largest override among the touched qubits.
	if got := m.Rate2(warm, hot); got != 0.25 {
		t.Errorf("Rate2(warm,hot) = %v, want 0.25", got)
	}
	if got := m.Rate2(cold, warm); got != 1e-2 {
		t.Errorf("Rate2(cold,warm) = %v, want 1e-2", got)
	}
	if !m.IsDefective(warm) || !m.IsDefective(hot) || m.IsDefective(cold) {
		t.Error("IsDefective must reflect site-rate overrides")
	}
	// SiteRates takes precedence over Defective for the same qubit.
	both := m.WithDefects([]lattice.Coord{warm}, 0.5)
	both.SiteRates = m.SiteRates
	if got := both.Rate1(warm); got != 1e-2 {
		t.Errorf("Rate1 with both overrides = %v, want the SiteRates value", got)
	}
}

// TestGateRatePrecedence pins the precedence rule that Rate1/Rate2/RateM
// and sim.Patcher's dense override vector share: an override replaces the
// base rate even when it is lower, and a gate takes the larger of two set
// overrides, b's on a tie (visible only in the sign of a zero).
func TestGateRatePrecedence(t *testing.T) {
	low, high := Override{Rate: 2.5e-4, Set: true}, Override{Rate: 8e-3, Set: true}
	cases := []struct {
		a, b Override
		want float64
	}{
		{Override{}, Override{}, 1e-3},
		{low, Override{}, 2.5e-4},
		{Override{}, low, 2.5e-4},
		{low, high, 8e-3},
		{high, low, 8e-3},
		{Override{Rate: 0.3}, Override{}, 1e-3}, // an unset rate is ignored
	}
	for _, tc := range cases {
		if got := GateRate(tc.a, tc.b, 1e-3); got != tc.want {
			t.Errorf("GateRate(%v, %v, 1e-3) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	pos, neg := Override{Rate: 0, Set: true}, Override{Rate: math.Copysign(0, -1), Set: true}
	if !math.Signbit(GateRate(pos, neg, 1e-3)) || math.Signbit(GateRate(neg, pos, 1e-3)) {
		t.Error("a tie must resolve to b's override")
	}
	if got := (Override{}).Or(1e-3); got != 1e-3 {
		t.Errorf("unset Or = %v, want the base", got)
	}
	lowQ, highQ, cold := lattice.Coord{Row: 1, Col: 1}, lattice.Coord{Row: 1, Col: 3}, lattice.Coord{Row: 3, Col: 3}
	m := Uniform(1e-3).WithSiteRates([]SiteRate{{lowQ, 2.5e-4}, {highQ, 8e-3}})
	if m.Rate1(lowQ) != 2.5e-4 || m.RateM(lowQ) != 2.5e-4 || m.Rate2(lowQ, cold) != 2.5e-4 || m.Rate2(cold, lowQ) != 2.5e-4 {
		t.Error("an override below the base rate must replace it")
	}
	if m.Rate2(lowQ, highQ) != 8e-3 || m.Rate2(highQ, lowQ) != 8e-3 {
		t.Error("a gate must take the larger of two overrides")
	}
}

func TestWithCorrelated(t *testing.T) {
	m := Uniform(1e-3).WithCorrelated(4e-3)
	if m.PCorrelated != 4e-3 {
		t.Error("correlated rate not installed")
	}
	if Uniform(1e-3).PCorrelated != 0 {
		t.Error("base model must default to zero correlated rate")
	}
}

// TestOverlaySiteRates pins the reweight tier's composition helper: the
// larger rate wins per site, neither input vector is mutated, and the copy
// owns fresh storage.
func TestOverlaySiteRates(t *testing.T) {
	a := lattice.Coord{Row: 1, Col: 1}
	b := lattice.Coord{Row: 1, Col: 3}
	c := lattice.Coord{Row: 3, Col: 1}
	base := Uniform(1e-3).WithSiteRates([]SiteRate{{a, 0.25}, {b, 0.01}})
	overlay := []SiteRate{{b, 0.05}, {c, 0.02}}
	m := base.OverlaySiteRates(overlay)
	if got := m.Rate1(a); got != 0.25 {
		t.Errorf("Rate1(a) = %v, want the existing 0.25 kept", got)
	}
	if got := m.Rate1(b); got != 0.05 {
		t.Errorf("Rate1(b) = %v, want the larger overlay rate 0.05", got)
	}
	if got := m.Rate1(c); got != 0.02 {
		t.Errorf("Rate1(c) = %v, want the overlaid 0.02", got)
	}
	// An overlay below the existing override never masks it.
	if got := base.OverlaySiteRates([]SiteRate{{a, 0.1}}).Rate1(a); got != 0.25 {
		t.Errorf("smaller overlay masked the override: %v", got)
	}
	// Inputs are untouched; the copy owns fresh storage.
	if !slices.Equal(base.SiteRates, []SiteRate{{a, 0.25}, {b, 0.01}}) {
		t.Errorf("base model mutated: %v", base.SiteRates)
	}
	if !slices.Equal(overlay, []SiteRate{{b, 0.05}, {c, 0.02}}) {
		t.Errorf("overlay vector mutated: %v", overlay)
	}
	m.SiteRates[0].Rate = 0.5
	if base.SiteRates[0].Rate != 0.25 {
		t.Error("overlaid model shares storage with the base model")
	}
	// Overlaying onto a model with no overrides works from a nil vector.
	if got := Uniform(1e-3).OverlaySiteRates(overlay).Rate1(c); got != 0.02 {
		t.Errorf("overlay on clean model = %v, want 0.02", got)
	}
}

// TestOverlayRatesMatchesMap pins OverlayRates against the map rule it
// replaced: write base into a map, then each overlay rate r at q with
// "if r > m[q] { m[q] = r }". Rates include zeros of both signs, negative
// rates and NaN, so the result must gain and lose entries exactly where the
// map does, and keep each value bit for bit.
func TestOverlayRatesMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rates := []float64{0, math.Copysign(0, -1), -1e-3, math.NaN(), 1e-3, 2e-3, 0.25, 0.5}
	vector := func() []SiteRate {
		m := map[lattice.Coord]float64{}
		for k := rng.Intn(8); k > 0; k-- {
			m[lattice.Coord{Row: rng.Intn(4), Col: rng.Intn(4)}] = rates[rng.Intn(len(rates))]
		}
		out := make([]SiteRate, 0, len(m))
		for q, r := range m {
			out = append(out, SiteRate{q, r})
		}
		slices.SortFunc(out, func(a, b SiteRate) int { return a.Q.Compare(b.Q) })
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		base, over := vector(), vector()
		want := map[lattice.Coord]float64{}
		for _, sr := range base {
			want[sr.Q] = sr.Rate
		}
		for _, sr := range over {
			if sr.Rate > want[sr.Q] {
				want[sr.Q] = sr.Rate
			}
		}
		got := OverlayRates(nil, base, over)
		if len(got) != len(want) || !slices.IsSortedFunc(got, func(a, b SiteRate) int { return a.Q.Compare(b.Q) }) {
			t.Fatalf("OverlayRates(%v, %v) = %v, map rule %v", base, over, got, want)
		}
		for _, sr := range got {
			if r, ok := want[sr.Q]; !ok || math.Float64bits(r) != math.Float64bits(sr.Rate) {
				t.Fatalf("OverlayRates(%v, %v) = %v, map rule %v", base, over, got, want)
			}
		}
	}
}

// TestCompactRatesMatchesMap pins CompactRates against the same map rule,
// written from an empty map: candidates repeat coordinates and carry
// zeros, negative rates and NaN.
func TestCompactRatesMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rates := []float64{0, math.Copysign(0, -1), -1e-3, math.NaN(), 1e-3, 2e-3, 0.25, 0.5}
	for trial := 0; trial < 2000; trial++ {
		var cands []SiteRate
		want := map[lattice.Coord]float64{}
		for k := rng.Intn(10); k > 0; k-- {
			sr := SiteRate{lattice.Coord{Row: rng.Intn(3), Col: rng.Intn(3)}, rates[rng.Intn(len(rates))]}
			cands = append(cands, sr)
			if sr.Rate > want[sr.Q] {
				want[sr.Q] = sr.Rate
			}
		}
		in := slices.Clone(cands)
		got := CompactRates(cands)
		if len(got) != len(want) || !slices.IsSortedFunc(got, func(a, b SiteRate) int { return a.Q.Compare(b.Q) }) {
			t.Fatalf("CompactRates(%v) = %v, map rule %v", in, got, want)
		}
		for _, sr := range got {
			if r, ok := want[sr.Q]; !ok || math.Float64bits(r) != math.Float64bits(sr.Rate) {
				t.Fatalf("CompactRates(%v) = %v, map rule %v", in, got, want)
			}
		}
	}
}

// TestDeviceDefectRates pins the device vector: every listed site once,
// sorted, at the device rate — a zero rate included.
func TestDeviceDefectRates(t *testing.T) {
	a, b := lattice.Coord{Row: 1, Col: 1}, lattice.Coord{Row: 0, Col: 2}
	got := DeviceDefectRates([]lattice.Coord{a, b, a}, 0)
	if want := []SiteRate{{b, 0}, {a, 0}}; !slices.Equal(got, want) {
		t.Errorf("DeviceDefectRates = %v, want %v", got, want)
	}
}
