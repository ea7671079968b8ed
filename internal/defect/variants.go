package defect

import (
	"fmt"
	"math/rand"

	"surfdeformer/internal/lattice"
)

// The paper's dynamic-defect taxonomy (§I, §II-B) names three mechanisms:
// cosmic-ray multi-bit burst errors (the Model in defect.go), leakage
// errors, and error drift. This file provides the latter two so mitigation
// strategies can be exercised against every defect species.

// LeakageModel describes leakage events: single qubits leave the
// computational space, becoming inoperable and seeding high-weight
// correlated errors on their neighbours until reset.
type LeakageModel struct {
	// RatePerQubit is the leakage probability per qubit per cycle.
	RatePerQubit float64
	// MeanDurationCycles is the expected time until the leaked qubit is
	// returned to the computational space.
	MeanDurationCycles int
	// NeighbourRate is the induced error rate on lattice neighbours while
	// the qubit is leaked.
	NeighbourRate float64
}

// DefaultLeakage follows the leakage literature the paper cites [25]:
// rare per-cycle leakage with multi-hundred-cycle lifetimes and strongly
// elevated neighbour error rates.
func DefaultLeakage() *LeakageModel {
	return &LeakageModel{
		RatePerQubit:       1e-5,
		MeanDurationCycles: 400,
		NeighbourRate:      0.25,
	}
}

// SampleLeakage draws leakage events over a window of cycles for the sites
// of a patch.
func (m *LeakageModel) SampleLeakage(sites []lattice.Coord, cycles int64, rng *rand.Rand) []Event {
	var events []Event
	for _, q := range sites {
		lambda := m.RatePerQubit * float64(cycles)
		n := Poisson(lambda, rng)
		for i := 0; i < n; i++ {
			start := int64(rng.Float64() * float64(cycles))
			dur := int64(1)
			if m.MeanDurationCycles > 0 {
				dur = 1 + int64(rng.ExpFloat64()*float64(m.MeanDurationCycles))
			}
			region := []lattice.Coord{q}
			for _, nb := range q.DiagNeighbors() {
				region = append(region, nb)
			}
			lattice.SortCoords(region)
			events = append(events, Event{
				Center:     q,
				StartCycle: start,
				EndCycle:   start + dur,
				Region:     region,
			})
		}
	}
	return events
}

// DriftModel describes error drift: qubit error rates wander over time;
// a drifted qubit's rate is multiplied until recalibration.
type DriftModel struct {
	// RatePerQubit is the drift-onset probability per qubit per second.
	RatePerQubit float64
	// Multiplier scales the physical error rate of a drifted qubit.
	Multiplier float64
	// MeanDurationCycles is the expected time until recalibration.
	MeanDurationCycles int
}

// DefaultDrift gives occasional 10× rate excursions, the regime where
// decoder-prior mismatch (rather than outright code breakage) dominates.
func DefaultDrift() *DriftModel {
	return &DriftModel{
		RatePerQubit:       1e-3,
		Multiplier:         10,
		MeanDurationCycles: 50000,
	}
}

// DriftedRate returns the error rate of a drifted qubit given the base
// physical rate.
func (m *DriftModel) DriftedRate(base float64) float64 {
	r := base * m.Multiplier
	if r > 0.5 {
		return 0.5
	}
	return r
}

// SampleDrift draws drift events over a window.
func (m *DriftModel) SampleDrift(sites []lattice.Coord, cycles int64, cycleSeconds float64, rng *rand.Rand) []Event {
	var events []Event
	windowSeconds := float64(cycles) * cycleSeconds
	for _, q := range sites {
		n := Poisson(m.RatePerQubit*windowSeconds, rng)
		for i := 0; i < n; i++ {
			start := int64(rng.Float64() * float64(cycles))
			dur := int64(1)
			if m.MeanDurationCycles > 0 {
				dur = 1 + int64(rng.ExpFloat64()*float64(m.MeanDurationCycles))
			}
			events = append(events, Event{
				Center:     q,
				StartCycle: start,
				EndCycle:   start + dur,
				Region:     []lattice.Coord{q},
			})
		}
	}
	return events
}

// Severity classifies how aggressively an event must be mitigated: left to
// decoder reweighting, patched with a bandage super-stabilizer
// (gauge-merge, arXiv 2404.18644), or removed outright by deformation. The
// paper's §VIII argues reweighting suffices only for mild rate elevation;
// the super-stabilizer tier handles a single inoperable-or-nearly-so qubit
// without sacrificing the surrounding patch; ≈50% multi-qubit regions must
// be removed.
type Severity int

const (
	// SeverityReweight marks events a decoder-prior update can absorb.
	SeverityReweight Severity = iota
	// SeveritySuper marks events a bandage super-stabilizer (merging the
	// checks around the defective qubit into one weight-heavier check)
	// can absorb without deforming the patch boundary.
	SeveritySuper
	// SeverityRemove marks events requiring code deformation.
	SeverityRemove
)

// RemoveThreshold is the default local error rate at or above which an
// event needs code deformation rather than any in-place mitigation: a
// region erring one shot in ten overwhelms any prior update (the decoding
// graph cannot even represent rates at ½, see decoder.MaxEdgeProb), while
// milder drift leaves the code intact and only misweights the decoder.
const RemoveThreshold = 0.1

// SuperThreshold is the default local error rate at or above which an
// event outgrows decoder-prior reweighting and warrants a bandage
// super-stabilizer: below it the decoder absorbs the elevation, between it
// and RemoveThreshold a gauge-merge isolates the noisy qubit in place, at
// or above RemoveThreshold the region is cut out entirely. It sits just
// under RemoveThreshold so the default three-tier ladder classifies every
// pre-existing dynamic-defect scenario exactly as the two-tier ladder did.
const SuperThreshold = 0.08

// Classify returns the mitigation tier for a local error rate at the
// default severity boundaries.
func Classify(localRate float64) Severity {
	return ClassifyAt(localRate, SuperThreshold, RemoveThreshold)
}

// ClassifyAt returns the mitigation tier for a local error rate at
// explicit severity boundaries — the knobs runtime mitigation policies
// (deform.Mitigation) expose. Non-positive superThreshold selects
// SuperThreshold; non-positive removeThreshold selects RemoveThreshold.
// Rates in [superThreshold, removeThreshold) classify SeveritySuper;
// rates at or above removeThreshold classify SeverityRemove. Callers that
// accept thresholds from configuration should reject misordered pairs via
// ValidateThresholds first; ClassifyAt itself assumes a sane ladder.
func ClassifyAt(localRate, superThreshold, removeThreshold float64) Severity {
	if superThreshold <= 0 {
		superThreshold = SuperThreshold
	}
	if removeThreshold <= 0 {
		removeThreshold = RemoveThreshold
	}
	if localRate >= removeThreshold {
		return SeverityRemove
	}
	if localRate >= superThreshold {
		return SeveritySuper
	}
	return SeverityReweight
}

// ValidateThresholds checks that a (superThreshold, removeThreshold) pair
// describes a well-ordered three-tier ladder after default resolution
// (non-positive values select the package defaults, mirroring ClassifyAt).
// A resolved superThreshold at or above the resolved removeThreshold would
// silently erase the super tier — reject it loudly instead. A NaN threshold
// orders against nothing, so it is rejected too.
func ValidateThresholds(superThreshold, removeThreshold float64) error {
	s, r := superThreshold, removeThreshold
	if s <= 0 {
		s = SuperThreshold
	}
	if r <= 0 {
		r = RemoveThreshold
	}
	if !(s < r) {
		return fmt.Errorf("defect: super threshold %g must be below remove threshold %g", s, r)
	}
	return nil
}
