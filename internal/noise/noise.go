// Package noise defines the error models used throughout the evaluation:
// the standard circuit-level depolarizing model of the paper (§VII-A), an
// optional correlated two-qubit channel (fig. 14a), and per-qubit overrides
// describing dynamic-defect regions with elevated error rates.
package noise

import (
	"slices"

	"surfdeformer/internal/lattice"
)

// Model is a circuit-level Pauli error model.
//
// Following the paper: probability P1 for the single-qubit depolarizing
// channel after single-qubit operations, P2 for the two-qubit depolarizing
// channel after two-qubit gates, PM for the Pauli-X (flip) channel on
// measurement and reset. The paper sets all three to p = 10⁻³, one tenth of
// the surface-code threshold.
type Model struct {
	P1 float64 // single-qubit depolarizing rate
	P2 float64 // two-qubit depolarizing rate
	PM float64 // measurement/reset flip rate

	// PCorrelated adds a correlated two-qubit channel on top of the
	// depolarizing channel for two-qubit gates: with this probability the
	// gate suffers a fixed correlated Pauli (X⊗X or Z⊗Z with equal odds).
	// This is the knob swept in fig. 14a.
	PCorrelated float64

	// Defective elevates the error rate of specific physical qubits: any
	// operation touching a defective qubit uses DefectRate instead of the
	// base rates. This models the paper's dynamic defect regions whose
	// physical error rate rises to ≈50%.
	Defective  map[lattice.Coord]bool
	DefectRate float64

	// SiteRates elevates individual qubits to individual rates — the
	// multi-species defect picture (cosmic-ray regions at ≈50%, leakage
	// neighbourhoods at ≈25%, drifted qubits at a few ×p) the trajectory
	// engine composes. It is sorted by coordinate (lattice.Coord.Compare)
	// and holds each coordinate at most once: the DEM cache key encodes it
	// as it stands, and lookups binary-search it. An entry is an override
	// even at rate 0: it takes precedence over Defective for the same qubit
	// and over the scalar rates; two-qubit gates use the largest rate among
	// the qubits they touch.
	SiteRates []SiteRate
}

// SiteRate is one qubit's rate override.
type SiteRate struct {
	Q    lattice.Coord
	Rate float64
}

// OverlayRates appends to dst the max-wins overlay of over on base, two
// sorted site-rate vectors, in one linear merge: every entry of base,
// raised to over's rate at the same coordinate where that is larger, and
// every entry of over at a coordinate base lacks whose rate is positive.
// That is exactly what writing over into a map holding base with
// "if r > m[q] { m[q] = r }" leaves, absent coordinates reading 0, so the
// result gains an entry only where such a map would. dst must not overlap
// base or over.
func OverlayRates(dst, base, over []SiteRate) []SiteRate {
	i, j := 0, 0
	for i < len(base) || j < len(over) {
		var c int
		switch {
		case j == len(over):
			c = -1
		case i == len(base):
			c = 1
		default:
			c = base[i].Q.Compare(over[j].Q)
		}
		switch {
		case c < 0:
			dst = append(dst, base[i])
			i++
		case c > 0:
			if over[j].Rate > 0 {
				dst = append(dst, over[j])
			}
			j++
		default:
			sr := base[i]
			if over[j].Rate > sr.Rate {
				sr.Rate = over[j].Rate
			}
			dst = append(dst, sr)
			i++
			j++
		}
	}
	return dst
}

// CompactRates sorts rates by coordinate and compacts them in place, max
// wins per coordinate, keeping a coordinate only where its largest rate is
// positive: the vector that writing each entry into an empty map with
// "if r > m[q] { m[q] = r }" leaves. It returns the compacted prefix.
func CompactRates(rates []SiteRate) []SiteRate {
	slices.SortFunc(rates, func(a, b SiteRate) int { return a.Q.Compare(b.Q) })
	out := rates[:0]
	for _, sr := range rates {
		if n := len(out); n > 0 && out[n-1].Q == sr.Q {
			if sr.Rate > out[n-1].Rate {
				out[n-1].Rate = sr.Rate
			}
			continue
		}
		if sr.Rate > 0 {
			out = append(out, sr)
		}
	}
	return out
}

// siteRate returns q's SiteRates entry, if any.
func (m *Model) siteRate(q lattice.Coord) (float64, bool) {
	i, ok := slices.BinarySearchFunc(m.SiteRates, q, func(sr SiteRate, q lattice.Coord) int { return sr.Q.Compare(q) })
	if !ok {
		return 0, false
	}
	return m.SiteRates[i].Rate, true
}

// Uniform returns the paper's baseline model with all rates equal to p.
func Uniform(p float64) *Model {
	return &Model{P1: p, P2: p, PM: p}
}

// WithDefects returns a copy of the model with the given defective qubits
// at the given local error rate (the paper uses 0.5).
func (m *Model) WithDefects(defective []lattice.Coord, rate float64) *Model {
	c := *m
	c.Defective = make(map[lattice.Coord]bool, len(defective))
	for _, q := range defective {
		c.Defective[q] = true
	}
	c.DefectRate = rate
	return &c
}

// WithCorrelated returns a copy of the model with the correlated two-qubit
// channel set to pc.
func (m *Model) WithCorrelated(pc float64) *Model {
	c := *m
	c.PCorrelated = pc
	return &c
}

// WithSiteRates returns a copy of the model with the given per-qubit rate
// overrides, a vector sorted by coordinate with each coordinate at most
// once (see SiteRates). The vector is adopted, not copied: callers must not
// mutate it while the model is in use, and a model a DEM or a cache keeps
// must own its vector.
func (m *Model) WithSiteRates(rates []SiteRate) *Model {
	c := *m
	c.SiteRates = rates
	return &c
}

// OverlaySiteRates returns a copy of the model with the given per-qubit
// rates, a sorted vector, overlaid on any existing SiteRates (OverlayRates):
// for each site the larger rate wins, so composing an estimated-prior
// overlay can only elevate, never mask, an existing override. Unlike
// WithSiteRates, both input vectors are left untouched (the copy owns a
// fresh vector), so callers may keep reusing their overlay's storage; the
// returned model must not be mutated afterwards (DEM caches key on it).
func (m *Model) OverlaySiteRates(rates []SiteRate) *Model {
	c := *m
	c.SiteRates = OverlayRates(make([]SiteRate, 0, len(m.SiteRates)+len(rates)), m.SiteRates, rates)
	return &c
}

// DeviceDefectRates builds the per-site rate vector of a device's
// permanent fabrication defects (defect.Device): every listed site, once,
// at the device's defective-site error rate, sorted by coordinate. The
// result feeds WithSiteRates / OverlayRates like any dynamic-defect vector
// — fabrication defects are just site-rate elevations that never subside,
// so the trajectory engine merges them (max-wins) under whatever dynamic
// events strike on top.
func DeviceDefectRates(sites []lattice.Coord, rate float64) []SiteRate {
	qs := slices.Clone(sites)
	lattice.SortCoords(qs)
	qs = slices.Compact(qs)
	out := make([]SiteRate, len(qs))
	for i, q := range qs {
		out[i] = SiteRate{Q: q, Rate: rate}
	}
	return out
}

// IsDefective reports whether q lies in a defect region.
func (m *Model) IsDefective(q lattice.Coord) bool {
	if _, ok := m.siteRate(q); ok {
		return true
	}
	return m.Defective[q]
}

// Override is one qubit's resolved rate override: when Set, Rate replaces
// the base rate of every operation on the qubit, even when it is lower.
// The zero value is no override.
type Override struct {
	Rate float64
	Set  bool
}

// Or returns the override's rate when set and base otherwise.
func (o Override) Or(base float64) float64 {
	if o.Set {
		return o.Rate
	}
	return base
}

// GateRate is the two-qubit precedence rule: the larger of two set
// overrides (b's on a tie), else whichever is set, else base. Rate2 and
// sim.Patcher, which resolves overrides into a dense per-qubit vector,
// both rate gates through it.
func GateRate(a, b Override, base float64) float64 {
	switch {
	case a.Set && b.Set:
		if a.Rate > b.Rate {
			return a.Rate
		}
		return b.Rate
	case a.Set:
		return a.Rate
	}
	return b.Or(base)
}

// override returns the override at q: its SiteRates entry, else DefectRate
// when q is Defective.
func (m *Model) override(q lattice.Coord) Override {
	if r, ok := m.siteRate(q); ok {
		return Override{Rate: r, Set: true}
	}
	if m.Defective[q] {
		return Override{Rate: m.DefectRate, Set: true}
	}
	return Override{}
}

// Rate1 returns the single-qubit depolarizing rate at q.
func (m *Model) Rate1(q lattice.Coord) float64 {
	return m.override(q).Or(m.P1)
}

// Rate2 returns the two-qubit depolarizing rate for a gate on a and b (see
// GateRate).
func (m *Model) Rate2(a, b lattice.Coord) float64 {
	return GateRate(m.override(a), m.override(b), m.P2)
}

// RateM returns the measurement/reset flip rate at q.
func (m *Model) RateM(q lattice.Coord) float64 {
	return m.override(q).Or(m.PM)
}

// DefaultPhysical is the paper's physical error rate p = 10⁻³.
const DefaultPhysical = 1e-3

// DefaultDefectRate is the error rate inside a defect region (≈50%).
const DefaultDefectRate = 0.5
