// Package estimator converts per-cycle logical error rates into program
// retry risks under dynamic defects, for each mitigation framework.
//
// Absolute logical error rates at the paper's distances (d = 19…27) are
// far below what Monte-Carlo can measure directly, so — exactly like the
// paper, which composes per-cycle rates into retry risks following
// Gidney–Ekerå — the estimator uses a Λ-extrapolation model
//
//	λ(d) = A · (p / p_th)^((d+1)/2)
//
// whose constants are fitted (Fit) to union-find memory simulations in the
// measurable regime or taken from the defaults recorded in DefaultLambda.
// The (p, d) simulation grid behind a fit runs in the experiments package
// (experiments.Calibrate, surfdeform calibrate); this package holds only
// the model and its least-squares math.
package estimator

import (
	"fmt"
	"math"

	"surfdeformer/internal/noise"
)

// LambdaModel extrapolates the per-cycle logical error rate to arbitrary
// code distance.
type LambdaModel struct {
	P          float64 // physical error rate
	PThreshold float64 // fitted effective threshold of the decoder
	A          float64 // fitted prefactor
}

// DefaultLambda returns the extrapolation model used by the program-level
// experiments. The constants are pinned by two anchors (see EXPERIMENTS.md):
// they sit inside the uncertainty band of this repository's own union-find
// calibration (surfdeform calibrate at p ∈ [3,6]×10⁻³ fits A ≈ 0.04–0.09,
// p_th ≈ 6.5–10×10⁻³; the power-law ansatz cannot pin p = 10⁻³ behaviour
// from the measurable regime alone), and they reproduce the effective
// per-cycle rates implied by the paper's own Table II retry risks
// (λ(19) ≈ 6×10⁻¹⁰ at p = 10⁻³).
func DefaultLambda() *LambdaModel {
	return &LambdaModel{P: noise.DefaultPhysical, PThreshold: 6.5e-3, A: 0.08}
}

// Rate returns the per-cycle logical error rate at distance d (both error
// species combined). Distances below 2 saturate at the random limit.
func (m *LambdaModel) Rate(d int) float64 {
	if d < 2 {
		return 0.5
	}
	lam := m.A * math.Pow(m.P/m.PThreshold, float64(d+1)/2)
	if lam > 0.5 {
		return 0.5
	}
	return lam
}

// RateAt evaluates the model at a different physical rate (fig. 14a).
func (m *LambdaModel) RateAt(p float64, d int) float64 {
	c := *m
	c.P = p
	return c.Rate(d)
}

// CalibrationPoint is one measured (p, d) → λ sample.
type CalibrationPoint struct {
	P      float64
	D      int
	Lambda float64
}

// Fit fits the Λ model's A and p_th by least squares in log space to
// measured calibration points and returns the model at physical rate p.
// Every point needs a positive measured rate (a point without failures
// carries no information on the log scale); fewer than three points, or
// points that cannot separate A from p_th, are an error.
func Fit(p float64, pts []CalibrationPoint) (*LambdaModel, error) {
	if len(pts) < 3 {
		return nil, fmt.Errorf("estimator: only %d usable calibration points", len(pts))
	}
	// log λ_i = logA + k_i·log p_i − k_i·log p_th with k_i = (d_i+1)/2:
	// least squares over (logA, log p_th).
	var s11, s12, s22, b1, b2 float64
	for _, pt := range pts {
		if pt.Lambda <= 0 || pt.P <= 0 {
			return nil, fmt.Errorf("estimator: calibration point p=%g d=%d has λ=%g (the log fit needs p, λ > 0)", pt.P, pt.D, pt.Lambda)
		}
		k := float64(pt.D+1) / 2
		y := math.Log(pt.Lambda) - k*math.Log(pt.P)
		// features: x1 = 1 (logA), x2 = -k (log p_th)
		s11 += 1
		s12 += -k
		s22 += k * k
		b1 += y
		b2 += -k * y
	}
	det := s11*s22 - s12*s12
	if det == 0 {
		return nil, fmt.Errorf("estimator: singular calibration system")
	}
	logA := (b1*s22 - b2*s12) / det
	logPth := (s11*b2 - s12*b1) / det
	return &LambdaModel{P: p, PThreshold: math.Exp(logPth), A: math.Exp(logA)}, nil
}
