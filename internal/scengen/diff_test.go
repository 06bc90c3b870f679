package scengen

import (
	"testing"
	"time"

	"mavr/internal/scenario"
)

// The real differential property: the same Spec on unprotected vs MAVR
// boards, quiet sky and under link faults, must be
// observation-equivalent after normalization.
func TestDifferentialEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario simulations")
	}
	for _, spec := range []scenario.Spec{
		{Name: "diff-quiet", Board: scenario.BoardMAVR, Seed: 3, Run: 1200 * time.Millisecond},
		{Name: "diff-lossy", Board: scenario.BoardMAVR, Seed: 5, Run: 1200 * time.Millisecond, Link: scenario.LinkSpec{DropRate: 0.1}},
		{Name: "diff-attacked", Board: scenario.BoardMAVR, Seed: 7, Run: 1500 * time.Millisecond,
			Injections: []scenario.Injection{{At: 400 * time.Millisecond, Kind: scenario.InjectV2, Value: 0x40}}},
	} {
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		d, err := Differential(spec, res.Records)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if d != nil {
			t.Errorf("%s: defense-independent cores diverged:\n%s", spec.Name, d)
		}
	}
}

// The comparator itself must catch a doctored pair and report it in
// the shared Divergence shape.
func TestCompareDifferentialFlagsDoctoredTrace(t *testing.T) {
	mk := func() []scenario.Record {
		return []scenario.Record{
			{T: 0, Kind: "start", Note: "a"},
			{T: ms(100), Kind: "boot", Note: "application started"},
			{T: ms(110), Kind: "heartbeat", N: 5},
			{T: ms(600), Kind: "checkpoint", Counters: &scenario.Counters{Pulses: 50, Epoch: 1, MaxSilence: ms(20)}},
			{T: ms(1000), Kind: "verdict", Verdict: &scenario.Verdict{BoardAlive: true}},
		}
	}
	unprot := mk()
	// The unprotected twin has no boot record, no epoch, and runs from
	// T=0 — normalization must erase exactly those differences.
	unprot = append(unprot[:1], unprot[2:]...)
	for i := range unprot {
		unprot[i].T -= ms(100)
	}
	unprot[0].T = 0
	unprot[0].Kind = "start"
	unprot[1].Kind = "heartbeat"
	if c := unprot[2].Counters; c != nil {
		cc := *c
		cc.Epoch = 0
		cc.MaxSilence = ms(5)
		unprot[2].Counters = &cc
	}
	if d := CompareDifferential(unprot, mk()); d != nil {
		t.Fatalf("normalization did not erase defense-attributable differences:\n%s", d)
	}

	// Doctor the mavr side: a telemetry delta the unprotected twin
	// never saw.
	doctored := mk()
	doctored[2].N = 6
	d := CompareDifferential(unprot, doctored)
	if d == nil {
		t.Fatal("doctored telemetry not flagged")
	}
	if d.Invariant != InvariantDifferential {
		t.Errorf("divergence invariant = %q, want %q", d.Invariant, InvariantDifferential)
	}
	if d.GotKind != "heartbeat" {
		t.Errorf("divergence GotKind = %q, want heartbeat", d.GotKind)
	}
}

// Normalization drops everything from the first injected packet on —
// post-attack behaviour is the detection story, not the differential
// one.
func TestNormalizeDifferentialTruncatesAtInject(t *testing.T) {
	recs := []scenario.Record{
		{T: 0, Kind: "start"},
		{T: ms(10), Kind: "heartbeat", N: 5},
		{T: ms(200), Kind: "inject", Note: "v2", N: 64, Payload: "feed"},
		{T: ms(300), Kind: "heartbeat", N: 99},
		{T: ms(1000), Kind: "verdict", Verdict: &scenario.Verdict{}},
	}
	got := NormalizeDifferential(recs)
	if len(got) != 1 || got[0].Kind != "heartbeat" || got[0].N != 5 {
		t.Fatalf("normalized = %+v, want the single pre-attack heartbeat", got)
	}
}
