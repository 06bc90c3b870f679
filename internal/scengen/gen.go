// Package scengen is the generative layer over the scenario harness:
// a seeded Spec generator that samples the scenario space (board mode,
// firmware profile, defense timing, link and chaos schedules, timed
// attack injections), a library of machine-checked trace invariants
// that every generated run must satisfy, and a differential comparator
// that pairs the same seed on an unprotected and a MAVR board and
// demands the traces differ only in defense-attributable records.
//
// Where the golden traces in testdata/golden pin seven hand-picked
// scenarios byte-for-byte, scengen pins the *property surface*: any
// seed, drawn from a space the golden set never visits, must still
// satisfy the paper's claims (stealthy attacks are invisible on
// unprotected boards, every stale chain is neutralized by the
// randomized layout, pure link faults never produce compromise
// evidence, detection begets recovery). Like everything downstream of
// a Spec, Generate is a pure function: the same seed yields a
// byte-identical Spec on any machine, under -race, at any GOMAXPROCS
// (this package is in the determinism vettool's enforced set).
package scengen

import (
	"fmt"
	"time"

	"mavr/internal/detrand"
	"mavr/internal/firmware"
	"mavr/internal/scenario"
)

// Stream is a SplitMix64 sequence — the package's only randomness
// source. It is deliberately not math/rand: the stream's output for a
// seed is frozen by the sampling tests, so generated Specs can never
// drift underneath the CI sweep.
type Stream struct{ detrand.Stream }

// NewStream returns the deterministic draw stream for seed.
func NewStream(seed int64) *Stream {
	return &Stream{detrand.NewStream(uint64(seed)*detrand.Gamma + 0x5EED5CE4A1105EED)}
}

// Intn returns a draw in [0, n).
func (s *Stream) Intn(n int) int {
	return int(s.Uint64() % uint64(n))
}

// pick returns one element of vals, uniformly.
func pickF(s *Stream, vals []float64) float64 { return vals[s.Intn(len(vals))] }

// Injection write-target pool: distinct data-space addresses far
// enough apart that one injection's 3-byte write can never satisfy
// another's landed check.
var addrPool = []uint16{
	firmware.AddrGyroCfg,
	firmware.AddrFreeMem + 0x400,
	firmware.AddrFreeMem + 0x420,
	firmware.AddrFreeMem + 0x440,
}

// Generate samples one scenario Spec from seed. The sampling is
// calibrated so that every generated Spec is runnable within a few
// seconds of simulated flight and satisfies the preconditions of the
// invariant library:
//
//   - boards: 40% unprotected, 40% mavr, 20% software-only;
//   - apps: testapp-weighted (the paper profiles reprogram slowly, so
//     they appear but do not dominate);
//   - at most one V1 (crash-grade) injection, always last — a dead
//     board cannot receive further payloads;
//   - injection write targets come from a distinct-address pool, and
//     every injection leaves >= 600ms of tail so silence-based
//     detection has room to trip before the verdict;
//   - V3 trampolines get StageWrites=2 with 20ms spacing and extra
//     run tail to cover the staging packets.
func Generate(seed int64) scenario.Spec {
	st := NewStream(seed)
	spec := scenario.Spec{Name: fmt.Sprintf("gen-%d", seed), Seed: seed}

	switch r := st.Intn(10); {
	case r < 4:
		spec.Board = scenario.BoardUnprotected
	case r < 8:
		spec.Board = scenario.BoardMAVR
	default:
		spec.Board = scenario.BoardSoftwareOnly
	}

	switch r := st.Intn(10); {
	case r < 7:
		spec.App = "testapp"
	case r == 7:
		spec.App = "arduplane"
	case r == 8:
		spec.App = "arducopter"
	default:
		spec.App = "ardurover"
	}

	if spec.Board == scenario.BoardMAVR {
		// Watchdog in [20ms, 60ms]: always well below the GCS silence
		// threshold (200ms), so the master detects before the ground does.
		spec.WatchdogTimeout = time.Duration(20+10*st.Intn(5)) * time.Millisecond
		spec.RandomizeEvery = 1 + st.Intn(2)
	}

	if st.Intn(2) == 0 {
		spec.Link.DropRate = pickF(st, []float64{0.02, 0.05, 0.1, 0.2, 0.3})
		spec.Link.DupRate = pickF(st, []float64{0, 0, 0.01, 0.05})
	}
	if st.Intn(10) < 3 {
		spec.Chaos.PartitionRate = pickF(st, []float64{0.1, 0.2})
		spec.Chaos.PartitionWindow = []int{4096, 8192}[st.Intn(2)]
		spec.Chaos.CorruptRate = pickF(st, []float64{0, 0.02, 0.05})
	}

	spec.Injections = sampleInjections(st)

	// Run length: a base draw in [400ms, 2s] quantized to 50ms,
	// stretched so the last injection leaves a 600ms tail (plus the V3
	// staging packets, which arrive after their injection's At).
	run := 400*time.Millisecond + time.Duration(st.Intn(33))*50*time.Millisecond
	for _, inj := range spec.Injections {
		need := inj.At + 600*time.Millisecond
		if inj.Kind == scenario.InjectV3 {
			need += 400 * time.Millisecond
		}
		if need > run {
			run = need
		}
	}
	spec.Run = run.Round(50 * time.Millisecond)
	if spec.Run < run {
		spec.Run += 50 * time.Millisecond
	}
	return spec
}

// sampleInjections draws the attack plan: count, kinds, spread-out
// send times and distinct write targets.
func sampleInjections(st *Stream) []scenario.Injection {
	var count int
	switch r := st.Intn(20); {
	case r < 4:
		count = 0
	case r < 12:
		count = 1
	case r < 17:
		count = 2
	default:
		count = 3
	}
	if count == 0 {
		return nil
	}
	at := 100*time.Millisecond + time.Duration(st.Intn(8))*50*time.Millisecond
	var out []scenario.Injection
	for i := 0; i < count; i++ {
		if i > 0 {
			at += 150*time.Millisecond + time.Duration(st.Intn(6))*50*time.Millisecond
			if out[i-1].Kind == scenario.InjectV3 {
				// Leave room for the previous trampoline's staging packets.
				at += 200 * time.Millisecond
			}
		}
		inj := scenario.Injection{
			At:    at,
			Addr:  addrPool[i%len(addrPool)],
			Value: byte(0x10 + st.Intn(0xE0)),
		}
		switch r := st.Intn(20); {
		case r < 3:
			inj.Kind = scenario.InjectV1
		case r < 9:
			inj.Kind = scenario.InjectV2
		case r < 12:
			inj.Kind = scenario.InjectV3
			// Stage into free SRAM, write into the scratch area above it;
			// index-offset both so two trampolines never collide.
			inj.Addr = 0x1600 + uint16(i)*0x40
			inj.StageAddr = firmware.AddrFreeMem + uint16(i)*0x100
			inj.StageWrites = 2
			inj.Spacing = 20 * time.Millisecond
		case r < 16:
			inj.Kind = scenario.InjectProbe
			inj.Candidate = uint32(0x200 + st.Intn(0x6000))
		default:
			inj.Kind = scenario.InjectSynth
		}
		out = append(out, inj)
		if inj.Kind == scenario.InjectV1 {
			// A crash-grade injection kills the board; later payloads
			// could never land and would poison the AttackLanded verdict.
			break
		}
	}
	return out
}
