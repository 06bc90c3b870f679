package core

import (
	"math"
	"math/big"
)

// EntropyBits returns log2(n!) — the randomization entropy of shuffling
// n function blocks. For ArduRover's 800 symbols the paper reports 6567
// bits (§VIII-B).
func EntropyBits(n int) float64 {
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg / math.Ln2
}

// Factorial returns n! exactly.
func Factorial(n int) *big.Int {
	return new(big.Int).MulRange(1, int64(n))
}

// ExpectedAttemptsFixed returns the expected number of brute-force
// attempts against a single fixed permutation, (N+1)/2 with N = n!
// (§V-D): each failed attempt eliminates one permutation.
func ExpectedAttemptsFixed(n int) *big.Float {
	N := new(big.Float).SetInt(Factorial(n))
	N.Add(N, big.NewFloat(1))
	return N.Quo(N, big.NewFloat(2))
}

// ExpectedAttemptsRerandomized returns the expected attempts against
// MAVR, which re-randomizes after every detected failure: guesses are
// with replacement, so the expectation is N = n! (§V-D).
func ExpectedAttemptsRerandomized(n int) *big.Float {
	return new(big.Float).SetInt(Factorial(n))
}

// BruteForceResult summarizes a Monte-Carlo brute-force experiment.
type BruteForceResult struct {
	N             int   // block count
	Permutations  int64 // n!
	Trials        int
	MeanAttempts  float64
	ModelAttempts float64
}

// PaddingEntropyBits returns the additional entropy from inserting
// random padding between function blocks — the §VIII-B extension the
// authors considered and rejected as unnecessary. Distributing
// freeWords words of padding across the n+1 gaps around n blocks
// yields C(freeWords+n, n) layouts, i.e. log2 of that many extra bits.
// On the APM the free flash is small (the reason the idea was
// considered at all), so the gain is negligible next to the n! of the
// permutation itself.
func PaddingEntropyBits(n, freeWords int) float64 {
	if n <= 0 || freeWords <= 0 {
		return 0
	}
	// log2 C(freeWords+n, n) via lgamma.
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return (lg(freeWords+n) - lg(n) - lg(freeWords)) / math.Ln2
}

func factInt(n int) int64 {
	f := int64(1)
	for i := 2; i <= n; i++ {
		f *= int64(i)
	}
	return f
}
