package sim

import (
	"fmt"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
)

// Phase is a stretch of QEC rounds governed by one noise model. Phased DEMs
// model dynamic defects faithfully: the hardware is nominal until the
// strike, defective afterwards — which is what the runtime defect detector
// observes.
type Phase struct {
	Rounds int
	Model  *noise.Model
}

// maxPhases bounds a phased build's phases: a phase's contribution kinds
// are offset by four per phase in a uint16 (build).
const maxPhases = 1 << 14

// BuildPhasedDEM constructs the detector error model of a memory experiment
// whose noise model changes between phases: one fault structure, each
// contribution rated by the model of its round's phase. Detector layout is
// identical to the single-phase BuildDEM over the same total rounds, so
// decoders built from a nominal DEM can decode phased samples (the
// uninformed-decoder setting).
func BuildPhasedDEM(c *code.Code, phases []Phase, basis lattice.CheckType) (*DEM, error) {
	if len(phases) == 0 || len(phases) > maxPhases {
		return nil, fmt.Errorf("sim: %d phases, want 1 to %d", len(phases), maxPhases)
	}
	for i, ph := range phases {
		if ph.Rounds < 1 {
			return nil, fmt.Errorf("sim: phase %d has %d rounds", i, ph.Rounds)
		}
		if ph.Model == nil {
			return nil, fmt.Errorf("sim: phase %d has no model", i)
		}
	}
	dem, err := build(c, phases, basis, enumerate)
	if err != nil {
		return nil, err
	}
	// Phased rates are round-dependent, so no single model can refold the
	// DEM: it keeps no plan.
	dem.plan = nil
	return dem, nil
}
