package sim

import (
	"math"
	"math/rand"
	"slices"
)

// Sampler draws shots from a DEM. Each mechanism fires independently with
// its probability; a shot is the XOR of the fired signatures. Sampling uses
// geometric skipping against the maximum mechanism probability, so the cost
// per shot is proportional to the number of candidate firings rather than
// the mechanism count.
type Sampler struct {
	dem     *DEM
	pmax    float64
	logQ    float64 // log(1 - pmax)
	accum   []int   // detector hit parity scratch
	fired   []int   // fired mechanism scratch, reused across shots
	flagged []int32 // flagged detector scratch, reused across shots
}

// NewSampler prepares a sampler for the DEM. Scratch is preallocated at
// worst-case bounds (every mechanism fires, every detector flags) so Shot
// never allocates.
func NewSampler(dem *DEM) *Sampler {
	pmax := 0.0
	for _, p := range dem.P {
		if p > pmax {
			pmax = p
		}
	}
	if pmax >= 1 {
		pmax = 1 - 1e-12
	}
	return &Sampler{
		dem:     dem,
		pmax:    pmax,
		logQ:    math.Log1p(-pmax),
		accum:   make([]int, dem.NumDets),
		fired:   make([]int, 0, len(dem.Mechs)),
		flagged: make([]int32, 0, dem.NumDets),
	}
}

// Shot samples one experiment: the flagged detectors (sorted ascending) and
// whether the logical observable flipped.
//
// The returned slice is scratch owned by the sampler and is valid only
// until the next Shot call; clone it to retain it across shots.
func (s *Sampler) Shot(rng *rand.Rand) (flagged []int32, obs bool) {
	if s.pmax <= 0 {
		return nil, false
	}
	mechs, ps := s.dem.Mechs, s.dem.P
	fired := s.fired[:0]
	s.flagged = s.flagged[:0]
	i := 0
	for {
		// Geometric skip: next candidate index under rate pmax.
		u := rng.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		skip := int(math.Log(u) / s.logQ)
		i += skip
		if i >= len(ps) {
			break
		}
		// Thinning: accept with p_i / pmax.
		if rng.Float64()*s.pmax < ps[i] {
			fired = append(fired, i)
		}
		i++
	}
	for _, mi := range fired {
		m := mechs[mi]
		for _, d := range m.Dets {
			s.accum[d] ^= 1
		}
		if m.Obs {
			obs = !obs
		}
	}
	for _, mi := range fired {
		for _, d := range s.dem.Mechs[mi].Dets {
			if s.accum[d] == 1 {
				s.flagged = append(s.flagged, d)
				s.accum[d] = 2 // mark emitted
			}
		}
	}
	// Reset scratch.
	for _, mi := range fired {
		for _, d := range s.dem.Mechs[mi].Dets {
			s.accum[d] = 0
		}
	}
	s.fired = fired
	slices.Sort(s.flagged)
	return s.flagged, obs
}
