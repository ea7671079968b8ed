package surfdeformer

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one testing.B per experiment; see DESIGN.md §3) plus the
// ablation studies of DESIGN.md §4. Benchmarks run the Quick experiment
// configurations so `go test -bench=. -benchmem` completes on a laptop; the
// cmd/surfdeform CLI runs the full-scale versions.
//
// Reported custom metrics carry the experiment's headline quantity so the
// bench output doubles as a results table.

import (
	"io"
	"math/rand"
	"slices"
	"testing"

	"surfdeformer/internal/decoder"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/estimator"
	"surfdeformer/internal/experiments"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/program"
	"surfdeformer/internal/sim"
	"surfdeformer/internal/traj"
)

func quickOpts(seed int64) experiments.Options {
	o := experiments.QuickOptions()
	o.Seed = seed
	return o
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

func BenchmarkTable2(b *testing.B) {
	var lastSurf, lastASC float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(quickOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		lastSurf, lastASC = rows[0].SurfRetryRisk, rows[0].ASCRetryRisk
	}
	b.ReportMetric(lastSurf, "surf-risk")
	b.ReportMetric(lastASC, "asc-risk")
	if lastSurf > 0 {
		b.ReportMetric(lastASC/lastSurf, "asc/surf-risk-ratio")
	}
}

func BenchmarkFig11a(b *testing.B) {
	var untreated, removed float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11a(quickOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		untreated, removed = last.UntreatedLE, last.RemovedLE
	}
	b.ReportMetric(untreated, "untreated-λ")
	b.ReportMetric(removed, "removed-λ")
}

func BenchmarkFig11b(b *testing.B) {
	var asc, surf float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11b(quickOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		asc, surf = last.ASCMean, last.SurfMean
	}
	b.ReportMetric(asc, "asc-distance")
	b.ReportMetric(surf, "surf-distance")
}

func BenchmarkFig11c(b *testing.B) {
	var surfTh, q3deTh float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11c(quickOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.DefectRate == 2e-4 && r.TaskSet == 1 {
				if r.Scheme == layout.SurfDeformer {
					surfTh = r.Throughput
				} else {
					q3deTh = r.Throughput
				}
			}
		}
	}
	b.ReportMetric(surfTh, "surf-throughput")
	b.ReportMetric(q3deTh, "q3de-throughput")
}

func BenchmarkFig12(b *testing.B) {
	var surfQ, lsQ float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(quickOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Scheme {
			case layout.SurfDeformer:
				surfQ = float64(r.Qubits)
			case layout.LatticeSurgery:
				lsQ = float64(r.Qubits)
			}
		}
	}
	b.ReportMetric(surfQ, "surf-qubits")
	if surfQ > 0 {
		b.ReportMetric(lsQ/surfQ, "ls/surf-qubit-ratio")
	}
}

func BenchmarkFig13a(b *testing.B) {
	var surfRisk, ascRisk float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13a(quickOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.D == 19 {
				if r.Scheme == layout.SurfDeformer {
					surfRisk = r.Risk
				} else {
					ascRisk = r.Risk
				}
			}
		}
	}
	b.ReportMetric(surfRisk, "surf-risk@d19")
	b.ReportMetric(ascRisk, "asc-risk@d19")
}

func BenchmarkFig13b(b *testing.B) {
	var ascY, surfY float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13b(quickOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		ascY, surfY = last.ASCYield, last.SurfYield
	}
	b.ReportMetric(ascY, "asc-yield")
	b.ReportMetric(surfY, "surf-yield")
}

func BenchmarkFig14a(b *testing.B) {
	var untreated, removed float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14a(quickOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		untreated, removed = last.UntreatedLE, last.RemovedLE
	}
	b.ReportMetric(untreated, "untreated-λ")
	b.ReportMetric(removed, "removed-λ")
}

func BenchmarkFig14b(b *testing.B) {
	var precise, imprecise float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14b(quickOpts(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		precise, imprecise = last.PreciseLE, last.ImpreciseLE
	}
	b.ReportMetric(precise, "precise-λ")
	b.ReportMetric(imprecise, "imprecise-λ")
}

// BenchmarkTrajectory measures the closed-loop trajectory engine: one full
// quick-scale trajectory (detect → deform → recover) per iteration, with
// cycles/sec as the headline custom metric (tracked alongside the hot-path
// numbers in BENCH_hotpath.json via cmd/bench).
func BenchmarkTrajectory(b *testing.B) {
	cfg := traj.QuickConfig()
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := traj.Run(cfg, traj.ModeSurfDeformer, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.ElapsedCycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkReweight measures the decoder-prior reweight tier: one full
// reweight-only trajectory on a sustained drift-only timeline per
// iteration — rate estimation, overlay construction, and the reweighted
// decode-DEM builds included. cycles/sec is the headline custom metric
// (tracked in BENCH_hotpath.json's "reweight" slot via cmd/bench); the
// reweighted-cycles fraction confirms the tier actually engaged.
func BenchmarkReweight(b *testing.B) {
	cfg := traj.DriftOnlyConfig()
	cfg.Horizon = 400 // one quick-scale trajectory per iteration
	var cycles, reweighted int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := traj.Run(cfg, traj.ModeReweightOnly, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.ElapsedCycles
		reweighted += res.ReweightedCycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
	b.ReportMetric(float64(reweighted)/float64(cycles), "reweighted-frac")
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §4)
// ---------------------------------------------------------------------------

// BenchmarkAblationBalancing compares the balanced boundary cut against the
// ASC-style fixed-Z cut on corner defects (fig. 8).
func BenchmarkAblationBalancing(b *testing.B) {
	corner := lattice.Coord{Row: 1, Col: 9}
	var balanced, fixed float64
	for i := 0; i < b.N; i++ {
		s1 := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, 5)
		if err := deform.ApplyDefects(s1, []lattice.Coord{corner}, deform.PolicySurfDeformer); err != nil {
			b.Fatal(err)
		}
		c1, err := s1.Build()
		if err != nil {
			b.Fatal(err)
		}
		balanced = float64(c1.Distance())

		s2 := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, 5)
		if err := deform.ApplyDefects(s2, []lattice.Coord{corner}, deform.PolicyASC); err != nil {
			b.Fatal(err)
		}
		c2, err := s2.Build()
		if err != nil {
			b.Fatal(err)
		}
		fixed = float64(c2.Distance())
	}
	b.ReportMetric(balanced, "balanced-distance")
	b.ReportMetric(fixed, "fixed-z-distance")
}

// BenchmarkAblationSyndromeRM compares SyndromeQ_RM against ASC's four
// DataQ_RM applications for an interior syndrome defect (fig. 7a).
func BenchmarkAblationSyndromeRM(b *testing.B) {
	target := lattice.Coord{Row: 4, Col: 6}
	var surfZ, ascZ float64
	for i := 0; i < b.N; i++ {
		s1 := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, 5)
		if err := s1.SyndromeQRM(target); err != nil {
			b.Fatal(err)
		}
		c1, err := s1.Build()
		if err != nil {
			b.Fatal(err)
		}
		surfZ = float64(c1.DistanceZ())

		s2 := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, 5)
		if err := deform.ApplyDefects(s2, []lattice.Coord{target}, deform.PolicyASC); err != nil {
			b.Fatal(err)
		}
		c2, err := s2.Build()
		if err != nil {
			b.Fatal(err)
		}
		ascZ = float64(c2.DistanceZ())
	}
	b.ReportMetric(surfZ, "syndromeqrm-dZ")
	b.ReportMetric(ascZ, "asc-4x-dataqrm-dZ")
}

// BenchmarkAblationEnlarge compares adaptive enlargement against Q3DE-style
// fixed doubling in added-qubit cost for a single interior defect.
func BenchmarkAblationEnlarge(b *testing.B) {
	var adaptive, fixed float64
	for i := 0; i < b.N; i++ {
		s := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, 7)
		if err := s.DataQRM(lattice.Coord{Row: 7, Col: 7}); err != nil {
			b.Fatal(err)
		}
		before, err := s.Build()
		if err != nil {
			b.Fatal(err)
		}
		res, err := deform.Enlarge(s, 7, 7, nil, deform.PolicySurfDeformer, deform.UniformBudget(7))
		if err != nil {
			b.Fatal(err)
		}
		adaptive = float64(res.Code.NumQubits() - before.NumQubits())
		// Q3DE doubles: a 14x14 patch instead of 7x7.
		fixed = float64(2*14*14 - 1 - (2*7*7 - 1))
	}
	b.ReportMetric(adaptive, "adaptive-added-qubits")
	b.ReportMetric(fixed, "q3de-added-qubits")
}

// BenchmarkAblationInterspace sweeps Δd and reports Eq. 1's blocking
// probability at the paper's λ.
func BenchmarkAblationInterspace(b *testing.B) {
	dm := defect.Paper()
	lambda := dm.PoissonLambda(2*27*27, float64(dm.DurationCycles)*dm.CycleSeconds)
	var p2, p4, p8 float64
	for i := 0; i < b.N; i++ {
		p2 = defect.PBlock(lambda, 2, 4)
		p4 = defect.PBlock(lambda, 4, 4)
		p8 = defect.PBlock(lambda, 8, 4)
	}
	b.ReportMetric(p2, "pblock-Δd2")
	b.ReportMetric(p4, "pblock-Δd4")
	b.ReportMetric(p8, "pblock-Δd8")
}

// BenchmarkAblationDecoder compares union-find, greedy and exact decoding
// failure counts on identical shots (validates the PyMatching
// substitution).
func BenchmarkAblationDecoder(b *testing.B) {
	c, err := NewPatch(3)
	if err != nil {
		b.Fatal(err)
	}
	_ = c
	dem, err := buildBenchDEM()
	if err != nil {
		b.Fatal(err)
	}
	g := decoder.NewGraph(dem)
	uf := decoder.NewUnionFind(g)
	gr := decoder.NewGreedy(g)
	ex := decoder.NewExact(g, 12)
	sampler := sim.NewSampler(dem)
	rng := rand.New(rand.NewSource(9))
	type shot struct {
		flagged []int32
		obs     bool
	}
	shots := make([]shot, 400)
	for i := range shots {
		f, o := sampler.Shot(rng)
		// Shot returns sampler-owned scratch; clone to keep it.
		shots[i] = shot{slices.Clone(f), o}
	}
	var ufFail, grFail, exFail float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ufFail, grFail, exFail = 0, 0, 0
		for _, s := range shots {
			if uf.DecodeToObs(s.flagged) != s.obs {
				ufFail++
			}
			if gr.DecodeToObs(s.flagged) != s.obs {
				grFail++
			}
			if ex.DecodeToObs(s.flagged) != s.obs {
				exFail++
			}
		}
	}
	b.ReportMetric(ufFail, "uf-failures")
	b.ReportMetric(grFail, "greedy-failures")
	b.ReportMetric(exFail, "exact-failures")
}

func buildBenchDEM() (*sim.DEM, error) {
	spec := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, 5)
	c, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return sim.BuildDEM(c, noise.Uniform(5e-3), 4, lattice.ZCheck)
}

// BenchmarkCalibration measures the Λ-model calibration: the (p, d)
// memory grid (experiments.Calibrate) and its fit (estimator.Fit). The
// rates are chosen high enough that every calibration point sees failures
// at this shot budget.
func BenchmarkCalibration(b *testing.B) {
	var a, pth float64
	opt := experiments.QuickOptions() // 1500 shots, 4 rounds
	ps := []float64{5e-3, 8e-3}
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		rows, err := experiments.Calibrate(opt, ps, []int{3, 5}, experiments.SweepEngine{})
		if err != nil {
			b.Fatal(err)
		}
		m, err := estimator.Fit(ps[0], experiments.CalibrationPoints(rows))
		if err != nil {
			b.Fatal(err)
		}
		a, pth = m.A, m.PThreshold
	}
	b.ReportMetric(a, "fitted-A")
	b.ReportMetric(pth, "fitted-pth")
}

// BenchmarkDeformationUnitStep measures the runtime cost of one full
// deformation round (Algorithm 1 + Algorithm 2 + rebuild) — the paper's
// "deformation within a single QEC cycle" claim concerns the schedule
// update, and this measures the controller work.
func BenchmarkDeformationUnitStep(b *testing.B) {
	var prog *program.Program
	_ = prog
	for i := 0; i < b.N; i++ {
		u := deform.NewUnit(lattice.Coord{Row: 0, Col: 0}, 9, 9,
			deform.PolicySurfDeformer, deform.UniformBudget(2))
		if _, err := u.Step([]lattice.Coord{{Row: 9, Col: 9}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDEMBuild measures detector-error-model construction (the
// simulator substrate's one-time cost per configuration).
func BenchmarkDEMBuild(b *testing.B) {
	spec := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, 7)
	c, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	model := noise.Uniform(1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.BuildDEM(c, model, 6, lattice.ZCheck); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCEngine measures Monte-Carlo engine throughput on a d=7
// memory experiment at increasing worker counts. Failure counts are
// bit-identical across the variants (deterministic per-shard RNG
// streams); only shots/second changes. On multi-core hardware the
// Workers=4 variant should deliver ≥2× the sequential throughput.
func BenchmarkMCEngine(b *testing.B) {
	spec := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, 7)
	c, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	model := noise.Uniform(2e-3)
	const shots = 20000
	variants := []struct {
		name    string
		workers int
	}{
		{"Workers=1", 1},
		{"Workers=4", 4},
		{"Workers=NumCPU", 0},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var failures int
			for i := 0; i < b.N; i++ {
				res, err := sim.RunMemoryOpts(c, model, nil, sim.RunOptions{
					Rounds:  6,
					Basis:   lattice.ZCheck,
					Factory: decoder.UnionFindFactory(),
					Shots:   shots,
					Workers: v.workers,
					Seed:    1,
				})
				if err != nil {
					b.Fatal(err)
				}
				failures = res.Failures
			}
			b.ReportMetric(float64(shots*b.N)/b.Elapsed().Seconds(), "shots/sec")
			b.ReportMetric(float64(failures), "failures")
		})
	}
}

// BenchmarkMCEngineAdaptive measures the early-stopping win: the same
// experiment with a 10% target RSE against the full fixed budget.
func BenchmarkMCEngineAdaptive(b *testing.B) {
	spec := deform.NewSquareSpec(lattice.Coord{Row: 0, Col: 0}, 5)
	c, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	model := noise.Uniform(5e-3)
	var spent float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunMemoryOpts(c, model, nil, sim.RunOptions{
			Rounds:    4,
			Basis:     lattice.ZCheck,
			Factory:   decoder.UnionFindFactory(),
			Shots:     200000,
			TargetRSE: 0.1,
			Seed:      1,
		})
		if err != nil {
			b.Fatal(err)
		}
		spent = float64(res.Shots)
	}
	b.ReportMetric(spent, "shots-spent")
	b.ReportMetric(200000, "shots-budget")
}

// BenchmarkDecodeShot measures steady-state per-shot decode cost. It must
// report 0 allocs/op — the CI alloc-regression gate greps for it, and
// TestDecodeZeroAllocs/TestShotZeroAllocs enforce the same contract.
func BenchmarkDecodeShot(b *testing.B) {
	dem, err := buildBenchDEM()
	if err != nil {
		b.Fatal(err)
	}
	uf := decoder.NewUnionFind(decoder.NewGraph(dem))
	sampler := sim.NewSampler(dem)
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flagged, _ := sampler.Shot(rng)
		uf.DecodeToObs(flagged)
	}
}

// BenchmarkSamplerShot isolates steady-state sampling cost (no decode).
// Like BenchmarkDecodeShot it must report 0 allocs/op.
func BenchmarkSamplerShot(b *testing.B) {
	dem, err := buildBenchDEM()
	if err != nil {
		b.Fatal(err)
	}
	sampler := sim.NewSampler(dem)
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flagged, _ := sampler.Shot(rng)
		_ = flagged
	}
}
