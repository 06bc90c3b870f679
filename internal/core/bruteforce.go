package core

import (
	"math/bits"
	"runtime"
	"sync"

	"mavr/internal/detrand"
)

// Monte-Carlo brute-force sweeps (§V-D). The experiments are
// embarrassingly parallel: every trial is independent, so trials are
// sharded into fixed-size chunks that run on a worker pool.
// Determinism guarantee: chunk i always draws from its own RNG seeded
// as a pure function of (seed, i), the chunk layout depends only on
// the trial count, and per-chunk attempt totals are reduced in chunk
// order after all workers finish — so for a fixed seed the result is
// bit-identical regardless of worker count or goroutine scheduling.

// bruteChunkTrials is the number of trials in one work unit. Small
// enough to load-balance the geometric-tailed re-randomized trials,
// large enough to amortize dispatch. Fixed (never derived from the
// worker count) so the chunk layout, and with it the result, is the
// same on every machine.
const bruteChunkTrials = 64

// bruteRNG is a SplitMix64 stream: a single multiply-xor-shift per
// draw and O(1) seeding, unlike math/rand's lagged-Fibonacci source
// whose 607-word seed walk would dominate short per-chunk streams.
type bruteRNG struct{ detrand.Stream }

// chunkRNG derives the generator for chunk i of an experiment. The
// index is passed through the full mixing function before it becomes
// the stream state: every SplitMix64 stream walks the same additive
// orbit, so a linear seed schedule (seed + i*gamma) would start chunk
// i+1 exactly one draw ahead of chunk i and all chunks would replay
// one shifted stream. Hashing scatters the starting points across the
// 2^64-step orbit, making overlap vanishingly unlikely.
func chunkRNG(seed int64, i int) bruteRNG {
	return bruteRNG{detrand.NewStream(detrand.Mix(uint64(seed) + (uint64(i)+1)*detrand.Gamma))}
}

// Intn returns a uniform int in [0, n) via Lemire's multiply-shift
// (bias below 2^-32 for the n! ranges used here).
func (r *bruteRNG) Intn(n int) int {
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// permInto writes a uniform random permutation of [0, n) into p
// (Fisher-Yates), avoiding math/rand.Perm's per-call allocation.
func (r *bruteRNG) permInto(p []int) {
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// runChunked executes trials of sim on a worker pool and returns the
// mean attempts per trial. sim must return the summed attempts of the
// count trials it runs with the chunk RNG it is given.
func runChunked(seed int64, trials, workers int, sim func(rng *bruteRNG, count int) float64) float64 {
	if trials <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := (trials + bruteChunkTrials - 1) / bruteChunkTrials
	if workers > chunks {
		workers = chunks
	}
	chunkTotal := func(ci int) float64 {
		count := bruteChunkTrials
		if rem := trials - ci*bruteChunkTrials; rem < count {
			count = rem
		}
		rng := chunkRNG(seed, ci)
		return sim(&rng, count)
	}
	totals := make([]float64, chunks)
	if workers == 1 {
		for ci := 0; ci < chunks; ci++ {
			totals[ci] = chunkTotal(ci)
		}
	} else {
		var next int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					ci := int(next)
					next++
					mu.Unlock()
					if ci >= chunks {
						return
					}
					totals[ci] = chunkTotal(ci)
				}
			}()
		}
		wg.Wait()
	}
	var sum float64
	for _, t := range totals { // fixed order: float addition is deterministic
		sum += t
	}
	return sum / float64(trials)
}

// SimulateBruteForceFixed measures the average number of guesses an
// attacker needs against a fixed permutation when each failed guess is
// eliminated (the software-only deployment of §VIII-A). The result
// converges to (n!+1)/2. Trials run on workers goroutines (<= 0 selects
// GOMAXPROCS); the result is a pure function of (seed, n, trials),
// independent of the worker count.
func SimulateBruteForceFixed(seed int64, n, trials, workers int) BruteForceResult {
	nPerm := factInt(n)
	mean := runChunked(seed, trials, workers, func(rng *bruteRNG, count int) float64 {
		order := make([]int, nPerm)
		var total float64
		for t := 0; t < count; t++ {
			secret := rng.Intn(int(nPerm))
			// Attacker enumerates candidate permutations in random order
			// without repetition.
			rng.permInto(order)
			for i, guess := range order {
				if guess == secret {
					total += float64(i + 1)
					break
				}
			}
		}
		return total
	})
	model, _ := ExpectedAttemptsFixed(n).Float64()
	return BruteForceResult{
		N: n, Permutations: nPerm, Trials: trials,
		MeanAttempts: mean, ModelAttempts: model,
	}
}

// SimulateBruteForceRerandomized measures the average guesses against
// MAVR: after every failed attempt the master processor re-randomizes,
// so previous failures carry no information. The result converges to
// n!. Workers and determinism are as for SimulateBruteForceFixed.
func SimulateBruteForceRerandomized(seed int64, n, trials, workers int) BruteForceResult {
	nPerm := factInt(n)
	mean := runChunked(seed, trials, workers, func(rng *bruteRNG, count int) float64 {
		var total float64
		for t := 0; t < count; t++ {
			attempts := 0
			for {
				attempts++
				secret := rng.Intn(int(nPerm)) // fresh permutation each attempt
				guess := rng.Intn(int(nPerm))
				if guess == secret {
					break
				}
			}
			total += float64(attempts)
		}
		return total
	})
	model, _ := ExpectedAttemptsRerandomized(n).Float64()
	return BruteForceResult{
		N: n, Permutations: nPerm, Trials: trials,
		MeanAttempts: mean, ModelAttempts: model,
	}
}
