package estimator

import (
	"math"
	"math/rand"

	"surfdeformer/internal/defect"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/program"
)

// LossModel describes how much code distance one defect event costs under a
// mitigation framework. Dynamic defects are temporary (they persist for
// DurationCycles and then subside, §I/§II-B), so the loss has two phases:
// the response transient and the remainder of the defect window. ASC-S
// cannot recover distance during the window (its sole flaw per fig. 1b);
// Surf-Deformer's enlargement restores it right after the response. The
// defaults are fitted from this repository's own deformation engine
// (estimator.FitLoss over cosmic-ray regions, cross-checked against the
// fig. 11b ablation).
type LossModel struct {
	// TransientLoss is the distance lost between defect onset and the end
	// of the deformation/enlargement response.
	TransientLoss int
	// WindowLoss is the distance lost for the rest of the defect window
	// (zero when adaptive enlargement restores the code; the full removal
	// loss when the framework cannot grow).
	WindowLoss int
	// ResponseCycles is how long the transient lasts (detection latency
	// plus the single-cycle deformation update).
	ResponseCycles int64
}

// Framework bundles the per-scheme behaviour the estimator composes.
type Framework struct {
	Scheme layout.Scheme
	Loss   LossModel
	// Untreated marks frameworks that leave the 50% defect region inside
	// the code with the decoder uninformed (lattice surgery): during the
	// event window the patch fails at the untreated rate.
	Untreated bool
	// BlocksChannels marks frameworks whose response occupies the
	// communication channels (Q3DE on its fixed layout).
	BlocksChannels bool
}

// DefaultFrameworks returns the four evaluated frameworks with their
// default loss models.
func DefaultFrameworks() map[layout.Scheme]Framework {
	return map[layout.Scheme]Framework{
		layout.SurfDeformer: {
			Scheme: layout.SurfDeformer,
			// Fitted: removal costs ~6 until enlargement lands; the Δd
			// budget restores all but ~1 unit for the rest of the window.
			Loss: LossModel{TransientLoss: 6, WindowLoss: 1, ResponseCycles: 100},
		},
		layout.ASCS: {
			Scheme: layout.ASCS,
			// Fitted: the super-stabilizer removal costs ~7 and nothing
			// recovers it until the defect itself subsides.
			Loss: LossModel{TransientLoss: 7, WindowLoss: 7, ResponseCycles: 100},
		},
		layout.Q3DE: {
			Scheme: layout.Q3DE,
			// Doubling plus erasure-aware decoding roughly maintains the
			// logical rate, but the enlargement squats on the channels.
			Loss:           LossModel{TransientLoss: 2, WindowLoss: 0, ResponseCycles: 100},
			BlocksChannels: true,
		},
		layout.Q3DEStar: {
			Scheme: layout.Q3DEStar,
			Loss:   LossModel{TransientLoss: 2, WindowLoss: 0, ResponseCycles: 100},
		},
		layout.LatticeSurgery: {
			Scheme:    layout.LatticeSurgery,
			Loss:      LossModel{TransientLoss: 0, WindowLoss: 0, ResponseCycles: 0},
			Untreated: true,
		},
	}
}

// Estimate is the outcome of a program-level evaluation.
type Estimate struct {
	Scheme         layout.Scheme
	Program        *program.Program
	D              int
	DeltaD         int
	PhysicalQubits int
	RetryRisk      float64
	OverRuntime    bool
	// MeanEvents is the average defect events per trial (diagnostics).
	MeanEvents float64
}

// EstimateProgram composes the retry risk of running prog at distance d
// under the framework, Monte-Carlo sampling defect timelines.
//
// Per trial: defect events arrive on each patch as a Poisson process over
// the program duration. Each event degrades that patch's distance according
// to the framework's loss model (transiently, then permanently). The trial
// fails if any patch suffers a logical error, composed from the per-cycle
// λ(d_effective) over the timeline. Q3DE on its fixed layout additionally
// stalls whenever an enlarged patch blocks required routing for longer than
// the schedule slack — with whole-program defect pressure this is what
// produces the paper's OverRuntime verdicts.
func EstimateProgram(prog *program.Program, fw Framework, d, deltaD int,
	dm *defect.Model, lm *LambdaModel, trials int, rng *rand.Rand) *Estimate {

	lay := layout.New(fw.Scheme, prog.LogicalQubits(), d, deltaD)
	est := &Estimate{
		Scheme:         fw.Scheme,
		Program:        prog,
		D:              d,
		DeltaD:         lay.DeltaD,
		PhysicalQubits: lay.PhysicalQubits(),
	}

	cycles := prog.Cycles(d)
	nPatches := prog.LogicalQubits()
	patchQubits := 2 * d * d
	seconds := float64(cycles) * dm.CycleSeconds
	lambdaEvents := dm.PoissonLambda(patchQubits, seconds) // events per patch

	baseRate := lm.Rate(d)
	// Untreated-defect failure rate per cycle inside an event window: the
	// 50% region overwhelms an uninformed decoder; the patch behaves like a
	// code whose distance lost the region diameter, at a heavily elevated
	// prefactor (measured in the fig. 11a experiment).
	untreatedRate := math.Min(0.5, lm.Rate(max(2, d-4*dm.Radius))*50)

	failSum := 0.0
	stallSum := 0.0
	eventsSum := 0.0
	duration := int64(dm.DurationCycles)
	for trial := 0; trial < trials; trial++ {
		logSurvive := 0.0 // log of survival probability across all patches
		blocked := false
		totalEvents := 0
		for patch := 0; patch < nPatches; patch++ {
			nEvents := defect.Poisson(lambdaEvents, rng)
			totalEvents += nEvents
			if nEvents == 0 {
				logSurvive += float64(cycles) * math.Log1p(-baseRate)
				continue
			}
			if fw.BlocksChannels {
				blocked = true
			}
			logSurvive += patchLogSurvive(cycles, duration, nEvents, d, fw, lm, untreatedRate)
			// Once survival is hopeless the remaining patches cannot raise
			// it; stop accumulating detail.
			if logSurvive < -60 {
				logSurvive = -60
				break
			}
		}
		failSum += 1 - math.Exp(logSurvive)
		eventsSum += float64(totalEvents)
		if blocked {
			// A blocked patch freezes every operation routed near it; with
			// events persisting for tens of thousands of cycles, any event
			// during the program forces a stall beyond the schedule slack.
			stallSum++
		}
	}
	est.RetryRisk = failSum / float64(trials)
	est.MeanEvents = eventsSum / float64(trials)
	if fw.BlocksChannels && stallSum/float64(trials) > 0.5 {
		est.OverRuntime = true
	}
	return est
}

// MinimalDistance searches for the smallest odd distance whose estimated
// retry risk meets the target, returning the final estimate. It gives up at
// maxD.
func MinimalDistance(prog *program.Program, fw Framework, target float64, deltaDFor func(d int) int,
	dm *defect.Model, lm *LambdaModel, trials, maxD int, rng *rand.Rand) (*Estimate, bool) {

	for d := 3; d <= maxD; d += 2 {
		est := EstimateProgram(prog, fw, d, deltaDFor(d), dm, lm, trials, rng)
		if est.OverRuntime {
			continue
		}
		if est.RetryRisk <= target {
			return est, true
		}
	}
	return EstimateProgram(prog, fw, maxD, deltaDFor(maxD), dm, lm, trials, rng), false
}

// patchLogSurvive composes the log survival probability of one patch with
// nEvents defect strikes in closed form. Defects are temporary: each event
// degrades the patch for its response transient and then for the rest of
// the defect window per the framework's WindowLoss; once the defect
// subsides the patch returns to full distance. Overlapping events are
// approximated by capping the total degraded time at the program length.
func patchLogSurvive(cycles, duration int64, nEvents, d int, fw Framework, lm *LambdaModel, untreatedRate float64) float64 {
	logAt := func(rate float64, c int64) float64 {
		if c <= 0 {
			return 0
		}
		if rate >= 0.5 {
			return -60
		}
		return float64(c) * math.Log1p(-rate)
	}
	if fw.Untreated {
		// Hot windows at the untreated rate; the rest at baseline.
		hot := int64(nEvents) * duration
		if hot > cycles {
			hot = cycles
		}
		return logAt(untreatedRate, hot) + logAt(lm.Rate(d), cycles-hot)
	}
	resp := fw.Loss.ResponseCycles
	if resp > duration {
		resp = duration
	}
	transientCycles := int64(nEvents) * resp
	windowCycles := int64(nEvents) * (duration - resp)
	if transientCycles > cycles {
		transientCycles = cycles
	}
	if transientCycles+windowCycles > cycles {
		windowCycles = cycles - transientCycles
	}
	quiet := cycles - transientCycles - windowCycles
	out := logAt(lm.Rate(max(2, d-fw.Loss.TransientLoss)), transientCycles)
	out += logAt(lm.Rate(max(2, d-fw.Loss.WindowLoss)), windowCycles)
	out += logAt(lm.Rate(d), quiet)
	return out
}
