package detect

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"surfdeformer/internal/lattice"
)

// history rebuilds, from the slots, each observable's firing rounds since
// the last Trim, as the map refWindow keeps them: an observable is present
// exactly while it has such a round. Window keeps no such map; only the
// tests read it.
func (w *Window) history() map[int32][]int {
	h := make(map[int32][]int)
	for _, s := range w.slots {
		if len(s.rounds) > 0 {
			h[s.obs] = s.rounds
		}
	}
	return h
}

func TestOracleRates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var truth, healthy []lattice.Coord
	for i := 0; i < 200; i++ {
		truth = append(truth, lattice.Coord{Row: 1, Col: 2*i + 1})
		healthy = append(healthy, lattice.Coord{Row: 3, Col: 2*i + 1})
	}
	report := Oracle(truth, healthy, 0.05, 0.1, rng)
	inReport := map[lattice.Coord]bool{}
	for _, q := range report {
		inReport[q] = true
	}
	var hits, falsePos int
	for _, q := range truth {
		if inReport[q] {
			hits++
		}
	}
	for _, q := range healthy {
		if inReport[q] {
			falsePos++
		}
	}
	// Expected: ~180 hits (fn=0.1), ~10 false positives (fp=0.05).
	if hits < 160 || hits > 200 {
		t.Errorf("hits %d, want ≈180", hits)
	}
	if falsePos < 2 || falsePos > 25 {
		t.Errorf("false positives %d, want ≈10", falsePos)
	}
}

func TestOraclePerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	truth := []lattice.Coord{{Row: 1, Col: 1}, {Row: 3, Col: 3}}
	healthy := []lattice.Coord{{Row: 5, Col: 5}}
	report := Oracle(truth, healthy, 0, 0, rng)
	if len(report) != 2 {
		t.Fatalf("perfect oracle returned %d sites, want 2", len(report))
	}
}

func TestWindowSeparatesDefects(t *testing.T) {
	w := NewWindow(20, 0.25)
	rng := rand.New(rand.NewSource(3))
	// Observable 7 is adjacent to a 50% defect (fires ~half the rounds);
	// observables 0..5 are healthy (fire at ~1%).
	for round := 0; round < 40; round++ {
		var fired []int32
		for o := int32(0); o < 6; o++ {
			if rng.Float64() < 0.01 {
				fired = append(fired, o)
			}
		}
		if rng.Float64() < 0.5 {
			fired = append(fired, 7)
		}
		w.Feed(round, fired)
	}
	flagged := w.Flagged()
	found := false
	for _, o := range flagged {
		if o == 7 {
			found = true
		} else {
			t.Errorf("healthy observable %d flagged", o)
		}
	}
	if !found {
		t.Error("defective observable not flagged")
	}
}

// TestWindowWarmup pins the warm-up fix: before one full window has
// elapsed, the firing-rate denominator is the number of rounds actually
// fed, not the configured window length — an early-stream defect firing at
// 100% must be flagged even though its absolute firing count is far below
// threshold·rounds.
func TestWindowWarmup(t *testing.T) {
	w := NewWindow(20, 0.5)
	for round := 0; round < 6; round++ {
		w.Feed(round, []int32{3})
	}
	// 6 firings in 6 rounds: rate 1.0. The pre-fix denominator of 20 rounds
	// demanded 10 absolute firings and left this unflagged.
	flagged := w.Flagged()
	if len(flagged) != 1 || flagged[0] != 3 {
		t.Fatalf("100%%-firing early-stream observable not flagged during warm-up: got %v", flagged)
	}

	// A healthy observable with one firing in the same warm-up stretch must
	// stay below a 50% rate threshold.
	w2 := NewWindow(20, 0.5)
	w2.Feed(0, []int32{4})
	for round := 1; round < 6; round++ {
		w2.Feed(round, nil)
	}
	if got := w2.Flagged(); len(got) != 0 {
		t.Errorf("single warm-up firing flagged: %v", got)
	}

	// Once a full window has elapsed the denominator is the configured
	// length again: 6 firings inside a 20-round window at threshold 0.5 do
	// not flag.
	w3 := NewWindow(20, 0.5)
	for round := 0; round < 40; round++ {
		var fired []int32
		if round >= 34 {
			fired = []int32{5}
		}
		w3.Feed(round, fired)
	}
	if got := w3.Flagged(); len(got) != 0 {
		t.Errorf("6/20 rate flagged at threshold 0.5 after warm-up: %v", got)
	}
}

// TestWindowFeedIdempotent pins the duplicate-feed fix: re-feeding the same
// (round, observable) pair must not double-count, so window rates can never
// exceed 1.0 and trimmed history cannot be re-inflated.
func TestWindowFeedIdempotent(t *testing.T) {
	w := NewWindow(4, 0.9)
	for round := 0; round < 8; round++ {
		w.Feed(round, []int32{1})
		w.Feed(round, []int32{1}) // duplicate feed of the same round
	}
	if got := len(w.history()[1]); got != 8 {
		t.Errorf("history holds %d entries after duplicate feeds, want 8", got)
	}
	// Rate is exactly 1.0 (4 firings in a 4-round window), not 2.0.
	lo := w.current - w.rounds + 1
	n := 0
	for _, r := range w.history()[1] {
		if r >= lo {
			n++
		}
	}
	if n != 4 {
		t.Errorf("window firing count %d, want 4", n)
	}

	// Duplicate feeds after a Trim must not re-append the current round.
	w.Trim()
	w.Feed(7, []int32{1})
	if got := len(w.history()[1]); got != 4 {
		t.Errorf("history holds %d entries after post-Trim duplicate feed, want 4", got)
	}
}

// TestWindowRejectsDecreasingRounds pins the documented contract: rounds
// must be fed in non-decreasing order, and a decreasing feed is ignored
// rather than corrupting the window state.
func TestWindowRejectsDecreasingRounds(t *testing.T) {
	w := NewWindow(5, 0.5)
	w.Feed(10, []int32{2})
	w.Feed(4, []int32{7}) // decreasing: ignored
	if w.current != 10 {
		t.Errorf("current round %d after decreasing feed, want 10", w.current)
	}
	if len(w.history()[7]) != 0 {
		t.Errorf("decreasing feed recorded history: %v", w.history()[7])
	}
	w.Feed(10, []int32{9}) // equal round is fine
	if len(w.history()[9]) != 1 {
		t.Errorf("equal-round feed not recorded")
	}
}

// TestEstimateRatesInversion pins the saturating-model inversion: firing
// counts generated from a known per-mechanism rate must invert back to a
// multiplier near the true one, where the naive linear ratio
// (fire/baseline) would land far below it.
func TestEstimateRatesInversion(t *testing.T) {
	const (
		p = 1e-3
		k = 15.0 // effective mechanism count encoded in the baseline
	)
	fire := func(q float64) float64 { return 0.5 * (1 - math.Pow(1-2*q, k)) }
	baseline := fire(p) // ≈ 0.0149
	w := NewWindow(100, 0.5)
	// A 10×-drifted observable fires at fire(0.01) ≈ 0.13: 13 of 100 rounds.
	n := int(math.Round(fire(0.01) * 100))
	for round := 0; round < 100; round++ {
		var fired []int32
		if round < n {
			fired = []int32{4}
		}
		w.Feed(round, fired)
	}
	ests := w.EstimateRates(p, func(int32) float64 { return baseline }, 2, 3)
	if len(ests) != 1 || ests[0].Observable != 4 {
		t.Fatalf("estimates = %+v, want exactly observable 4", ests)
	}
	got := ests[0].Multiplier
	if got < 8 || got > 12 {
		t.Errorf("estimated multiplier %.2f for a true 10× drift, want ≈10 (the linear ratio %.2f would miss)",
			got, ests[0].FireRate/baseline)
	}
	// The same stream gated at a higher multiplier returns nothing.
	if ests := w.EstimateRates(p, func(int32) float64 { return baseline }, 20, 3); len(ests) != 0 {
		t.Errorf("gate 20 passed a 10× drift: %+v", ests)
	}
}

// TestEstimateRatesSustainedGate pins the minFirings gate: a single noise
// firing over a short effective window must never qualify, however large
// its instantaneous rate ratio.
func TestEstimateRatesSustainedGate(t *testing.T) {
	w := NewWindow(20, 0.5)
	w.Feed(0, []int32{7})
	w.Feed(1, nil)
	// Rate 0.5 over 2 effective rounds: a naive estimator would scream.
	if ests := w.EstimateRates(1e-3, func(int32) float64 { return 0.015 }, 2, 3); len(ests) != 0 {
		t.Errorf("single firing qualified: %+v", ests)
	}
	// Unknown baselines (observable absent from the current code) skip.
	for round := 2; round < 12; round++ {
		w.Feed(round, []int32{7})
	}
	if ests := w.EstimateRates(1e-3, func(int32) float64 { return 0 }, 2, 3); len(ests) != 0 {
		t.Errorf("non-positive baseline qualified: %+v", ests)
	}
}

// TestTrimDoesNotBiasEstimates pins the satellite interaction: Trim drops
// exactly the history outside the trailing window — the same range every
// rate computation already ignores — so a trimmed window must produce
// bit-identical rate estimates to an untrimmed one fed the same stream.
func TestTrimDoesNotBiasEstimates(t *testing.T) {
	baseline := func(int32) float64 { return 0.015 }
	mk := func(trim bool) []RateEstimate {
		w := NewWindow(20, 0.25)
		for round := 0; round < 200; round++ {
			var fired []int32
			if round%3 == 0 {
				fired = append(fired, 2) // sustained ~33% firing
			}
			if round%17 == 0 {
				fired = append(fired, 9) // sporadic
			}
			w.Feed(round, fired)
			if trim && round%7 == 0 {
				w.Trim()
			}
		}
		return w.EstimateRates(1e-3, baseline, 2, 3)
	}
	plain, trimmed := mk(false), mk(true)
	if len(plain) == 0 {
		t.Fatal("stream produced no estimates; the comparison is vacuous")
	}
	if !reflect.DeepEqual(plain, trimmed) {
		t.Errorf("Trim biased the estimates:\nplain   %+v\ntrimmed %+v", plain, trimmed)
	}
	// Flagged agrees too (the deformation path reads the same window).
	w1, w2 := NewWindow(20, 0.25), NewWindow(20, 0.25)
	for round := 0; round < 50; round++ {
		var fired []int32
		if round%2 == 0 {
			fired = []int32{3}
		}
		w1.Feed(round, fired)
		w2.Feed(round, fired)
		w2.Trim()
	}
	if !reflect.DeepEqual(w1.Flagged(), w2.Flagged()) {
		t.Error("Trim changed Flagged")
	}
}

func TestWindowTrim(t *testing.T) {
	w := NewWindow(5, 0.5)
	for round := 0; round < 30; round++ {
		w.Feed(round, []int32{1})
	}
	w.Trim()
	// After trimming, history holds at most the window.
	if got := len(w.history()[1]); got > 5 {
		t.Errorf("history length %d after Trim, want <= 5", got)
	}
	if len(w.Flagged()) != 1 {
		t.Error("observable should remain flagged after Trim")
	}
	// An observable that stopped firing falls out of the window.
	for round := 30; round < 40; round++ {
		w.Feed(round, nil)
	}
	if len(w.Flagged()) != 0 {
		t.Error("stale observable should unflag")
	}
}
