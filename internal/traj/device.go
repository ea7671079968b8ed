package traj

// The fabrication-defect device path: each trajectory samples a permanent
// defect map from Config.Device (per-trajectory device seed, paired across
// arms), adapts the code to it at boot through the arm's mitigation ladder
// (bandage super-stabilizers or removal), and then runs the dynamic defect
// processes on the already-degraded device. Defective syndrome sites have
// no structural mitigation — they only elevate rates, merged max-wins under
// whatever dynamic events strike on top.

import (
	"slices"

	"surfdeformer/internal/code"
	"surfdeformer/internal/core"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/noise"
)

// armMitigation resolves the arm's mitigation ladder under the config's
// severity-boundary override and rejects misordered ladders.
func armMitigation(cfg Config, mode Mode) (deform.Mitigation, error) {
	mit := mode.Mitigation()
	if cfg.SuperThreshold != 0 {
		mit.SuperThreshold = cfg.SuperThreshold
	}
	if err := mit.Validate(); err != nil {
		return mit, err
	}
	return mit, nil
}

// sampleDevice draws the trajectory's fabrication-defect device (nil model
// = pristine fab). The device seed derives from the trajectory seed on its
// own salt stream, so every arm of a paired comparison sees the same device
// and the event/shot streams are untouched by its presence.
func sampleDevice(cfg Config, min, max lattice.Coord, seed int64) *defect.Device {
	if cfg.Device == nil {
		return nil
	}
	return cfg.Device.Sample(min, max, mc.DeriveSeed(seed, saltDevice))
}

// deviceRates is the permanent site-rate floor of a sampled device: every
// defective site (data and syndrome) at the device's error rate, as a
// sorted vector. Sites the boot adaptation removes from the circuit keep
// their entries — the DEM builder only consults rates at live circuit
// sites, and keeping the vector constant per trajectory keeps the cache
// keys stable.
func deviceRates(dev *defect.Device) []noise.SiteRate {
	if dev == nil {
		return nil
	}
	return noise.DeviceDefectRates(slices.Concat(dev.DataDefects, dev.SyndromeDefects), dev.ErrorRate)
}

// mergedRates overlays the permanent device rates under the dynamic event
// rates, max-wins per site — the same composition rule activeRates applies
// among overlapping events — into f's next buffer. Returns dynamic
// unchanged when no device rates apply.
func mergedRates(dynamic, device []noise.SiteRate, f *siteFold) []noise.SiteRate {
	if len(device) == 0 {
		return dynamic
	}
	return f.overlay(dynamic, device)
}

// bootAdapt adapts patch i of a system to the sampled device before cycle
// 0: the device's defective data qubits (filtered by contains when non-nil,
// for layout tiles) are routed through the mitigation ladder at the
// device's error rate and handled by the strongest enabled structural tier
// — removal (Step) or a super-stabilizer bandage (Super). Returns the
// adapted code (nil when nothing acted), the number of sites bandaged, and
// any deformation error (a device so broken the patch cannot boot). Boot
// adaptation is permanent: the adapted sites never enter the attribution
// bookkeeping, so recovery never reincorporates them.
func bootAdapt(sys *core.System, i int, mit deform.Mitigation, dev *defect.Device, contains func(lattice.Coord) bool) (*code.Code, int, error) {
	if sys == nil || dev == nil || len(dev.DataDefects) == 0 {
		return nil, 0, nil
	}
	sites := dev.DataDefects
	if contains != nil {
		sites = nil
		for _, q := range dev.DataDefects {
			if contains(q) {
				sites = append(sites, q)
			}
		}
	}
	if len(sites) == 0 {
		return nil, 0, nil
	}
	eff, ok := mit.Effective(mit.Route(dev.ErrorRate))
	if !ok {
		return nil, 0, nil
	}
	switch eff {
	case defect.SeverityRemove:
		st, err := sys.Step(i, sites)
		if err != nil {
			return nil, 0, err
		}
		return st.Code, 0, nil
	case defect.SeveritySuper:
		st, err := sys.Super(i, sites)
		if err != nil {
			return nil, 0, err
		}
		return st.Code, len(sys.Bandaged(i)), nil
	}
	return nil, 0, nil // reweight-effective: the rate floor handles it
}

// dataSites filters an estimated region down to its data-qubit sites — the
// only sites the bandage construction acts on.
func dataSites(estimate []lattice.Coord) []lattice.Coord {
	out := make([]lattice.Coord, 0, len(estimate))
	for _, q := range estimate {
		if q.IsData() {
			out = append(out, q)
		}
	}
	return out
}

// deviceDefectCount is the DeviceDefects result field: how many sites the
// sampled device fabricated defective (identical across paired arms).
func deviceDefectCount(dev *defect.Device) int {
	if dev == nil {
		return 0
	}
	return len(dev.DataDefects) + len(dev.SyndromeDefects)
}
