package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"time"
)

// refNominalMs is refWork's time on the benchmark's 2-vCPU host when no
// other tenant slows it. CPU-bound workloads report their end-to-end
// times at this speed.
const refNominalMs = 7.0

// The inputs of refWork, built once: a buffer to hash, integers to
// sort, and a single random cycle over 4 MiB to chase.
var (
	refBuf     = make([]byte, 1<<20)
	refInts    = make([]int, 50_000)
	refScratch = make([]int, len(refInts))
	refCycle   = make([]int32, 1<<20)
	refSink    int32
)

func init() {
	r := rand.New(rand.NewSource(1))
	r.Read(refBuf)
	for i := range refInts {
		refInts[i] = r.Int()
	}
	// Sattolo's algorithm: one cycle through every slot.
	for i := range refCycle {
		refCycle[i] = int32(i)
	}
	for i := len(refCycle) - 1; i > 0; i-- {
		j := r.Intn(i)
		refCycle[i], refCycle[j] = refCycle[j], refCycle[i]
	}
}

// refWork is a fixed workload built only from the standard library —
// hashing, sorting and dependent memory loads — that allocates nothing,
// so no change to this repository can alter it. Its time tracks the
// host's speed, which on a shared machine drifts by more than half
// over minutes.
func refWork() time.Duration {
	t0 := time.Now()
	sha256.Sum256(refBuf)
	copy(refScratch, refInts)
	sort.Ints(refScratch)
	i := int32(0)
	for n := 0; n < 40_000; n++ {
		i = refCycle[i]
	}
	refSink = i
	return time.Since(t0)
}

// refMs is the median of nine timed refWork runs, in milliseconds.
func refMs() float64 {
	var ds []float64
	for i := 0; i < 9; i++ {
		ds = append(ds, float64(refWork().Nanoseconds())/1e6)
	}
	return median(ds)
}
