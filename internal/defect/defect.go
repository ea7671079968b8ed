// Package defect models dynamic and static defects on quantum hardware.
//
// The dynamic model follows the paper (§VII-A), which adopts the Q3DE model
// derived from the cosmic-ray measurements of McEwen et al.: each physical
// qubit is struck by an event following an exponential clock with mean rate
// λ = 1/(26 · 10 s); a strike elevates the error rate of the 24 adjacent
// qubits (a Chebyshev-radius-2 region, 25 qubits including the centre) to
// ≈50% for T = 25 ms ≈ 25 000 QEC cycles.
package defect

import (
	"math"
	"math/rand"
	"sort"

	"surfdeformer/internal/lattice"
)

// Model holds the dynamic defect process parameters.
type Model struct {
	// RatePerQubit is the event rate per physical qubit per second
	// (paper: 0.1 Hz / 26 qubits ≈ 3.85e-3 events/qubit/s).
	RatePerQubit float64
	// DurationCycles is how many QEC cycles an event's effect lasts
	// (paper: 25 ms ≈ 25 000 cycles).
	DurationCycles int
	// Radius is the Chebyshev radius of the affected region in lattice
	// units of 2 (neighbouring qubits); radius 2 affects ≤ 25 sites — the
	// paper's "adjacent 24 qubits".
	Radius int
	// CycleSeconds converts cycles to wall time (1 µs per cycle,
	// matching ~25 000 cycles in 25 ms).
	CycleSeconds float64
	// ErrorRate is the physical error rate inside the region (≈0.5).
	ErrorRate float64
}

// Paper returns the model with the paper's parameters.
func Paper() *Model {
	return &Model{
		RatePerQubit:   0.1 / 26.0,
		DurationCycles: 25000,
		Radius:         2,
		CycleSeconds:   1e-6,
		ErrorRate:      0.5,
	}
}

// Event is one defect strike.
type Event struct {
	Center     lattice.Coord
	StartCycle int64
	EndCycle   int64
	Region     []lattice.Coord
}

// RegionOf returns the affected sites of a strike at center within bounds.
// The physical device grid is rotated 45° with respect to our lattice
// coordinates (device neighbours sit at diagonal offsets), so the device's
// (2·Radius+1)² square of qubits — 25 qubits for Radius 2, the paper's
// "adjacent 24 qubits" — is the Manhattan ball of radius 2·Radius over the
// qubit checkerboard.
func (m *Model) RegionOf(center lattice.Coord, min, max lattice.Coord) []lattice.Coord {
	var out []lattice.Coord
	reach := 2 * m.Radius
	for dr := -reach; dr <= reach; dr++ {
		for dc := -reach; dc <= reach; dc++ {
			q := lattice.Coord{Row: center.Row + dr, Col: center.Col + dc}
			if !q.IsData() && !q.IsCheck() {
				continue
			}
			if lattice.Manhattan(center, q) > reach {
				continue
			}
			if q.Row < min.Row || q.Row > max.Row || q.Col < min.Col || q.Col > max.Col {
				continue
			}
			out = append(out, q)
		}
	}
	lattice.SortCoords(out)
	return out
}

// PoissonLambda returns the Poisson parameter λ = n·ρ·T for the number of
// events on a block of n qubits over a window of T seconds — the quantity
// the layout generator's Eq. 1 consumes.
func (m *Model) PoissonLambda(nQubits int, windowSeconds float64) float64 {
	return float64(nQubits) * m.RatePerQubit * windowSeconds
}

// Sampler draws defect timelines for a patch of physical qubits.
type Sampler struct {
	model *Model
	sites []lattice.Coord
	min   lattice.Coord
	max   lattice.Coord
}

// Sites lists the physical sites (data and syndrome positions) of a patch
// bounding box, in row-major order.
func Sites(min, max lattice.Coord) []lattice.Coord {
	var sites []lattice.Coord
	for r := min.Row; r <= max.Row; r++ {
		for c := min.Col; c <= max.Col; c++ {
			q := lattice.Coord{Row: r, Col: c}
			if q.IsData() || q.IsCheck() {
				sites = append(sites, q)
			}
		}
	}
	return sites
}

// NewSampler prepares a sampler over the physical sites of a patch
// bounding box (all data and syndrome positions within min..max).
func NewSampler(model *Model, min, max lattice.Coord) *Sampler {
	return &Sampler{model: model, sites: Sites(min, max), min: min, max: max}
}

// NumSites returns how many physical sites the sampler covers.
func (s *Sampler) NumSites() int { return len(s.sites) }

// SampleWindow draws the defect events striking the patch during a window
// of the given number of QEC cycles.
func (s *Sampler) SampleWindow(cycles int64, rng *rand.Rand) []Event {
	if len(s.sites) == 0 || cycles <= 0 {
		return nil
	}
	windowSeconds := float64(cycles) * s.model.CycleSeconds
	lambda := s.model.PoissonLambda(len(s.sites), windowSeconds)
	n := Poisson(lambda, rng)
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		center := s.sites[rng.Intn(len(s.sites))]
		start := int64(rng.Float64() * float64(cycles))
		events = append(events, Event{
			Center:     center,
			StartCycle: start,
			EndCycle:   start + int64(s.model.DurationCycles),
			Region:     s.model.RegionOf(center, s.min, s.max),
		})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].StartCycle < events[j].StartCycle })
	return events
}

// ActiveAt returns the union of defective sites across events active at the
// given cycle.
func ActiveAt(events []Event, cycle int64) []lattice.Coord {
	seen := map[lattice.Coord]bool{}
	var out []lattice.Coord
	for _, e := range events {
		if cycle < e.StartCycle || cycle >= e.EndCycle {
			continue
		}
		for _, q := range e.Region {
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	lattice.SortCoords(out)
	return out
}

// maxPoisson caps the normal-approximation branch of Poisson. No modeled
// process draws anywhere near this many events; the cap exists so that a
// huge or infinite λ cannot push the float→int conversion out of range
// (which is implementation-defined in Go and lands on negative values on
// amd64) and feed a nonsense count to callers sizing slices from it.
const maxPoisson = math.MaxInt32

// Poisson samples a Poisson variate by inversion (λ ≤ 30) or the normal
// approximation (larger λ). It is the one Poisson sampler of the repository:
// the defect models, the retry-risk estimator and the throughput study all
// draw from it, so a draw is a pure function of (λ, RNG stream).
func Poisson(lambda float64, rng *rand.Rand) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		if lambda > maxPoisson {
			lambda = maxPoisson // also forces λ = +Inf onto a finite draw
		}
		x := math.Round(rng.NormFloat64()*math.Sqrt(lambda) + lambda)
		switch {
		case x < 0:
			return 0
		case x > maxPoisson:
			return maxPoisson
		}
		return int(x)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// StaticFaults samples k distinct faulty physical sites uniformly over a
// patch — the static fabrication-fault model of the yield study (fig. 13b).
func StaticFaults(min, max lattice.Coord, k int, rng *rand.Rand) []lattice.Coord {
	sites := Sites(min, max)
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
	if k > len(sites) {
		k = len(sites)
	}
	out := append([]lattice.Coord(nil), sites[:k]...)
	lattice.SortCoords(out)
	return out
}

// PBlock evaluates the paper's Eq. 1: the probability that more than
// ⌊Δd/D⌋ defects strike one code patch, blocking the communication channel.
func PBlock(lambda float64, deltaD, defectSize int) float64 {
	if defectSize <= 0 {
		defectSize = 1
	}
	kMax := deltaD / defectSize
	sum := 0.0
	term := math.Exp(-lambda)
	for k := 0; k <= kMax; k++ {
		sum += term
		term *= lambda / float64(k+1)
	}
	if sum > 1 {
		sum = 1
	}
	return 1 - sum
}
