package core

import (
	"math"
	"testing"
)

// The worker-pool brute-force sweeps must be bit-identical for a fixed
// seed no matter how many workers run them: chunk layout and per-chunk
// RNG streams depend only on (seed, trials), and totals are reduced in
// chunk order. The seed-1 means are known answers recorded before the
// chunk streams moved onto internal/detrand (the mavr-bench §V-D table).
func TestBruteForceParallelDeterministic(t *testing.T) {
	for _, tc := range []struct {
		n          int
		fixed, rer float64
	}{{3, 3.50175, 6.03175}, {4, 12.32225, 24.47125}, {5, 60.456, 119.7835}} {
		f := SimulateBruteForceFixed(1, tc.n, 4000, 0)
		r := SimulateBruteForceRerandomized(1, tc.n, 4000, 0)
		if f.MeanAttempts != tc.fixed || r.MeanAttempts != tc.rer {
			t.Errorf("n=%d seed 1: means %v/%v, want %v/%v", tc.n, f.MeanAttempts, r.MeanAttempts, tc.fixed, tc.rer)
		}
	}
	for _, n := range []int{3, 4, 5} {
		base := SimulateBruteForceFixed(7, n, 1000, 1)
		for _, workers := range []int{2, 4, 8} {
			got := SimulateBruteForceFixed(7, n, 1000, workers)
			if got.MeanAttempts != base.MeanAttempts {
				t.Errorf("fixed n=%d: workers=%d mean %v != workers=1 mean %v",
					n, workers, got.MeanAttempts, base.MeanAttempts)
			}
		}
		baseR := SimulateBruteForceRerandomized(7, n, 1000, 1)
		for _, workers := range []int{2, 4, 8} {
			got := SimulateBruteForceRerandomized(7, n, 1000, workers)
			if got.MeanAttempts != baseR.MeanAttempts {
				t.Errorf("rerandomized n=%d: workers=%d mean %v != workers=1 mean %v",
					n, workers, got.MeanAttempts, baseR.MeanAttempts)
			}
		}
	}
}

// Different seeds must produce different streams (guards against a
// chunkRNG regression that collapses seeds into one orbit position).
func TestBruteForceParallelSeedSensitivity(t *testing.T) {
	a := SimulateBruteForceFixed(1, 4, 2000, 4)
	b := SimulateBruteForceFixed(2, 4, 2000, 4)
	if a.MeanAttempts == b.MeanAttempts {
		t.Errorf("seeds 1 and 2 produced identical means (%v); RNG streams not seed-dependent", a.MeanAttempts)
	}
}

// The sweeps must converge to the closed-form models of §V-D (guards
// against chunk-stream overlap bias: a linear SplitMix64 seed schedule
// converges to the wrong mean), and MAVR's re-randomization must
// roughly double the attacker's work over a fixed layout.
func TestBruteForceParallelMatchesModels(t *testing.T) {
	const trials = 60_000
	for _, n := range []int{3, 4} {
		fixed := SimulateBruteForceFixed(11, n, trials, 8)
		if rel := math.Abs(fixed.MeanAttempts-fixed.ModelAttempts) / fixed.ModelAttempts; rel > 0.03 {
			t.Errorf("fixed n=%d: mean %.3f vs model %.3f (rel err %.3f)",
				n, fixed.MeanAttempts, fixed.ModelAttempts, rel)
		}
		rer := SimulateBruteForceRerandomized(11, n, trials, 8)
		if rel := math.Abs(rer.MeanAttempts-rer.ModelAttempts) / rer.ModelAttempts; rel > 0.05 {
			t.Errorf("rerandomized n=%d: mean %.3f vs model %.3f (rel err %.3f)",
				n, rer.MeanAttempts, rer.ModelAttempts, rel)
		}
		if rer.MeanAttempts < fixed.MeanAttempts*1.5 {
			t.Errorf("n=%d: re-randomization did not increase attacker effort: %.2f vs %.2f",
				n, rer.MeanAttempts, fixed.MeanAttempts)
		}
	}
}
