package deform

import (
	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
)

// EnlargeResult reports what the adaptive enlargement achieved.
type EnlargeResult struct {
	// Code is the final spec, compiled once into a fresh code the caller
	// owns. The trials were judged by their distances alone
	// (Spec.Distances).
	Code        *code.Code
	LayersAdded map[lattice.Side]int
	ReachedX    int // X distance of the final code
	ReachedZ    int // Z distance of the final code
	NewDefects  int // defective qubits encountered inside added layers
}

// Budget limits how many layers may be added per side; it encodes the
// layout's Δd inter-space reservation. A nil entry means zero budget.
type Budget map[lattice.Side]int

// UniformBudget gives every side the same layer allowance.
func UniformBudget(layers int) Budget {
	return Budget{lattice.Top: layers, lattice.Bottom: layers, lattice.Left: layers, lattice.Right: layers}
}

// Enlarge implements the paper's Algorithm 2 (Adaptive Enlargement
// Subroutine). Starting from a spec whose defects have already been removed
// (Algorithm 1), it grows the patch one layer at a time until the X and Z
// distances reach their targets or the per-side budgets are exhausted.
// For each needed unit of distance both candidate sides are evaluated and
// the cheaper/better one chosen (the paper's min(layer1, layer2)). Defective
// qubits inside freshly added layers — the fig. 9 cases — are removed with
// the given policy before the layer is judged; a layer that fails to improve
// the distance (a defect straddles it) triggers a second layer on the same
// side when the budget allows (fig. 9d).
//
// The base spec and every trial are judged by Spec.Distances, so a layout
// seen before costs a memo lookup rather than a compile. Apart from the
// memo's misses, Enlarge compiles only the spec it returns, and not even
// that when a miss has already compiled it.
func Enlarge(s *Spec, targetX, targetZ int, defective func(lattice.Coord) bool, policy Policy, budget Budget) (*EnlargeResult, error) {
	if defective == nil {
		defective = func(lattice.Coord) bool { return false }
	}
	if budget == nil {
		budget = Budget{}
	}
	res := &EnlargeResult{LayersAdded: map[lattice.Side]int{}}
	// c is the compiled current spec when a memo miss produced it, else nil.
	dx, dz, c, err := s.distances()
	if err != nil {
		return nil, err
	}

	// grow attempts to raise the distance of the given type by one unit,
	// trying each allowed side with one layer (and two on the same side if
	// one layer is defeated by a defect). It reports whether it improved.
	grow := func(typ lattice.CheckType) (bool, error) {
		var sides [2]lattice.Side
		if typ == lattice.ZCheck {
			sides = [2]lattice.Side{lattice.Left, lattice.Right}
		} else {
			sides = [2]lattice.Side{lattice.Top, lattice.Bottom}
		}
		type attempt struct {
			spec    *Spec
			code    *code.Code
			side    lattice.Side
			layers  int
			defects int
			dist    int
			dx, dz  int
		}
		var best *attempt
		current := dz
		if typ == lattice.XCheck {
			current = dx
		}
		for _, side := range sides {
			remaining := budget[side] - res.LayersAdded[side]
			for layers := 1; layers <= 2 && layers <= remaining; layers++ {
				trial := s.Clone()
				if err := trial.PatchQADD(side, layers); err != nil {
					return false, err
				}
				newDefects := defectsInStrip(trial, s, defective)
				if err := ApplyDefects(trial, newDefects, policy); err != nil {
					continue // this growth direction is not viable
				}
				tdx, tdz, tc, err := trial.distances()
				if err != nil {
					continue
				}
				dist := tdz
				if typ == lattice.XCheck {
					dist = tdx
				}
				if dist <= current {
					continue // layer defeated by defects; try more layers
				}
				a := &attempt{spec: trial, code: tc, side: side, layers: layers, defects: len(newDefects), dist: dist, dx: tdx, dz: tdz}
				if best == nil ||
					a.layers < best.layers ||
					(a.layers == best.layers && a.dist > best.dist) ||
					(a.layers == best.layers && a.dist == best.dist && a.defects < best.defects) {
					best = a
				}
				break // one viable attempt per side is enough
			}
		}
		if best == nil {
			return false, nil
		}
		*s = *best.spec
		c = best.code
		dx, dz = best.dx, best.dz
		res.LayersAdded[best.side] += best.layers
		res.NewDefects += best.defects
		return true, nil
	}

	const maxIterations = 64
	for iter := 0; iter < maxIterations && (dx < targetX || dz < targetZ); iter++ {
		progressed := false
		if dz < targetZ {
			ok, err := grow(lattice.ZCheck)
			if err != nil {
				return nil, err
			}
			progressed = progressed || ok
		}
		if dx < targetX {
			ok, err := grow(lattice.XCheck)
			if err != nil {
				return nil, err
			}
			progressed = progressed || ok
		}
		if !progressed {
			break // budgets exhausted or defects block further recovery
		}
	}
	if c == nil {
		if c, err = s.Build(); err != nil {
			return nil, err
		}
	}
	res.Code = c
	res.ReachedX = dx
	res.ReachedZ = dz
	return res, nil
}

// defectsInStrip lists the defective coordinates inside the region that
// grown covers but base does not.
func defectsInStrip(grown, base *Spec, defective func(lattice.Coord) bool) []lattice.Coord {
	gMin, gMax := grown.Bounds()
	var out []lattice.Coord
	for r := gMin.Row; r <= gMax.Row; r++ {
		for c := gMin.Col; c <= gMax.Col; c++ {
			q := lattice.Coord{Row: r, Col: c}
			if base.Contains(q) {
				continue
			}
			if !q.IsData() && !q.IsCheck() {
				continue
			}
			if defective(q) {
				out = append(out, q)
			}
		}
	}
	return out
}
