package core

import (
	"math"
	"runtime"
	"testing"
)

// The worker-pool brute-force sweeps must be bit-identical for a fixed
// seed no matter how many workers run them: chunk layout and per-chunk
// RNG streams depend only on (seed, trials), and totals are reduced in
// chunk order. The pool has GOMAXPROCS workers, so the test varies
// GOMAXPROCS over 1, 2, 3 and 8. The seed-1 means are known answers
// recorded before the chunk streams moved onto internal/detrand (the
// mavr-bench §V-D table).
func TestBruteForceParallelDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			n          int
			fixed, rer float64
		}{{3, 3.50175, 6.03175}, {4, 12.32225, 24.47125}, {5, 60.456, 119.7835}} {
			f := SimulateBruteForceFixed(1, tc.n, 4000)
			r := SimulateBruteForceRerandomized(1, tc.n, 4000)
			if f.MeanAttempts != tc.fixed || r.MeanAttempts != tc.rer {
				t.Errorf("GOMAXPROCS=%d n=%d seed 1: means %v/%v, want %v/%v",
					procs, tc.n, f.MeanAttempts, r.MeanAttempts, tc.fixed, tc.rer)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	var fixed, rer [6]float64
	for n := 3; n <= 5; n++ {
		fixed[n] = SimulateBruteForceFixed(7, n, 1000).MeanAttempts
		rer[n] = SimulateBruteForceRerandomized(7, n, 1000).MeanAttempts
	}
	for _, procs := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for n := 3; n <= 5; n++ {
			if got := SimulateBruteForceFixed(7, n, 1000).MeanAttempts; got != fixed[n] {
				t.Errorf("fixed n=%d: GOMAXPROCS=%d mean %v != GOMAXPROCS=1 mean %v", n, procs, got, fixed[n])
			}
			if got := SimulateBruteForceRerandomized(7, n, 1000).MeanAttempts; got != rer[n] {
				t.Errorf("rerandomized n=%d: GOMAXPROCS=%d mean %v != GOMAXPROCS=1 mean %v", n, procs, got, rer[n])
			}
		}
	}
}

// Different seeds must produce different streams (guards against a
// chunkRNG regression that collapses seeds into one orbit position).
func TestBruteForceParallelSeedSensitivity(t *testing.T) {
	a := SimulateBruteForceFixed(1, 4, 2000)
	b := SimulateBruteForceFixed(2, 4, 2000)
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
		fixed := SimulateBruteForceFixed(11, n, trials)
		if rel := math.Abs(fixed.MeanAttempts-fixed.ModelAttempts) / fixed.ModelAttempts; rel > 0.03 {
			t.Errorf("fixed n=%d: mean %.3f vs model %.3f (rel err %.3f)",
				n, fixed.MeanAttempts, fixed.ModelAttempts, rel)
		}
		rer := SimulateBruteForceRerandomized(11, n, trials)
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
