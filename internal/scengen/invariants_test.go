package scengen

import (
	"testing"
	"time"

	"mavr/internal/scenario"
)

// fixture builders — synthetic but shape-correct traces, mirroring the
// golden-gate style of scenario's own tests: every invariant gets a
// passing fixture and a hand-mutated violating twin.

func ms(d int64) int64 { return d * int64(time.Millisecond) }

func cleanVerdict() *scenario.Verdict {
	return &scenario.Verdict{
		BoardAlive: true,
		Final:      scenario.Counters{Pulses: 200, Heartbeats: 20, RawIMUs: 20},
	}
}

// baseTrace is a minimal well-formed trace: start, telemetry deltas,
// one checkpoint, verdict.
func baseTrace(v *scenario.Verdict) []scenario.Record {
	cp := v.Final
	cp.Pulses /= 2
	cp.Heartbeats /= 2
	cp.RawIMUs /= 2
	return []scenario.Record{
		{T: 0, Kind: "start", Note: "fixture"},
		{T: ms(10), Kind: "heartbeat", N: 5},
		{T: ms(500), Kind: "checkpoint", Counters: &cp},
		{T: ms(1000), Kind: "verdict", Verdict: v},
	}
}

// withInject splices an inject record after the start record.
func withInject(recs []scenario.Record, t int64, note string) []scenario.Record {
	out := append([]scenario.Record(nil), recs[:1]...)
	out = append(out, scenario.Record{T: t, Kind: "inject", Note: note, N: 64, Payload: "00decafc0ffee000"})
	return append(out, recs[1:]...)
}

func names(ds []*scenario.Divergence) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Invariant)
	}
	return out
}

func hasViolation(ds []*scenario.Divergence, name string) bool {
	for _, d := range ds {
		if d.Invariant == name {
			return true
		}
	}
	return false
}

func TestInvariantFixtures(t *testing.T) {
	unprotV2 := scenario.Spec{
		Board: scenario.BoardUnprotected, Seed: 1, Run: time.Second,
		Injections: []scenario.Injection{{At: 100 * time.Millisecond, Kind: scenario.InjectV2, Value: 0x40}},
	}
	mavrV2 := unprotV2
	mavrV2.Board = scenario.BoardMAVR

	cases := []struct {
		invariant string
		spec      scenario.Spec
		pass      func() []scenario.Record
		violate   func([]scenario.Record) []scenario.Record
	}{
		{
			invariant: "trace-well-formed",
			spec:      scenario.Spec{Board: scenario.BoardUnprotected, Run: time.Second},
			pass:      func() []scenario.Record { return baseTrace(cleanVerdict()) },
			violate: func(r []scenario.Record) []scenario.Record {
				r[0].Kind = "heartbeat" // no start record
				return r
			},
		},
		{
			invariant: "trace-well-formed",
			spec:      scenario.Spec{Board: scenario.BoardUnprotected, Run: time.Second},
			pass:      func() []scenario.Record { return baseTrace(cleanVerdict()) },
			violate: func(r []scenario.Record) []scenario.Record {
				r[2].T = ms(5) // time runs backwards
				return r
			},
		},
		{
			invariant: "stealthy-attack-invisible",
			spec:      unprotV2,
			pass: func() []scenario.Record {
				v := cleanVerdict()
				v.AttackLanded = true
				v.GyroCfg = 0x40
				return withInject(baseTrace(v), ms(100), "v2 write")
			},
			violate: func(r []scenario.Record) []scenario.Record {
				r[len(r)-1].Verdict.Compromised = true // stealthy attack flagged
				return r
			},
		},
		{
			invariant: "stealthy-never-silent",
			spec:      unprotV2,
			pass: func() []scenario.Record {
				v := cleanVerdict()
				v.AttackLanded = true
				return withInject(baseTrace(v), ms(100), "v2 write")
			},
			violate: func(r []scenario.Record) []scenario.Record {
				r[len(r)-1].Verdict.VehicleSilent = true
				return r
			},
		},
		{
			invariant: "crash-visible",
			spec: scenario.Spec{
				Board: scenario.BoardUnprotected, Run: time.Second,
				Injections: []scenario.Injection{{At: 100 * time.Millisecond, Kind: scenario.InjectV1, Value: 0x7F}},
			},
			pass: func() []scenario.Record {
				v := cleanVerdict()
				v.BoardAlive = false
				v.VehicleSilent = true
				v.Compromised = true
				v.AttackLanded = true
				v.Final.MaxSilence = ms(890)
				return withInject(baseTrace(v), ms(100), "v1 write")
			},
			violate: func(r []scenario.Record) []scenario.Record {
				r[len(r)-1].Verdict.VehicleSilent = false // dead board, no alarm
				return r
			},
		},
		{
			invariant: "stale-chain-neutralized",
			spec:      mavrV2,
			pass: func() []scenario.Record {
				v := cleanVerdict()
				v.Compromised = true
				v.VehicleSilent = true
				v.FailuresDetected = 1
				v.Final.Epoch = 2
				v.Final.MaxSilence = ms(300)
				r := withInject(baseTrace(v), ms(100), "v2 write")
				r[len(r)-2].Counters.Epoch = 1
				return r
			},
			violate: func(r []scenario.Record) []scenario.Record {
				r[len(r)-1].Verdict.AttackLanded = true // stale chain landed
				return r
			},
		},
		{
			invariant: "silence-begets-detection",
			spec:      mavrV2,
			pass: func() []scenario.Record {
				v := cleanVerdict()
				v.Compromised = true
				v.VehicleSilent = true
				v.FailuresDetected = 1
				v.Final.Epoch = 1
				v.Final.MaxSilence = ms(300)
				return baseTrace(v)
			},
			violate: func(r []scenario.Record) []scenario.Record {
				r[len(r)-1].Verdict.FailuresDetected = 0 // GCS alarmed, master blind
				return r
			},
		},
		{
			invariant: "recovery-follows-detection",
			spec:      scenario.Spec{Board: scenario.BoardMAVR, App: "testapp", Run: 2 * time.Second},
			pass: func() []scenario.Record {
				v := cleanVerdict()
				v.FailuresDetected = 1
				v.Reflashes = 1
				v.Final.Epoch = 2
				recs := baseTrace(v)
				recs[len(recs)-1].T = ms(2000)
				// start, hb, failure-detected(120) ... checkpoint(500),
				// reflash(680), verdict(2000) — time stays monotone.
				out := append([]scenario.Record(nil), recs[:2]...)
				out = append(out, scenario.Record{T: ms(120), Kind: "failure-detected", Note: "watchdog"})
				out = append(out, recs[2])
				out = append(out, scenario.Record{T: ms(680), Kind: "reflash", Note: "reprogrammed"})
				out = append(out, recs[3])
				out[3].Counters.Epoch = 2
				return out
			},
			violate: func(r []scenario.Record) []scenario.Record {
				// Remove the reflash: detection answered by nothing.
				var out []scenario.Record
				for _, rec := range r {
					if rec.Kind == "reflash" {
						continue
					}
					out = append(out, rec)
				}
				return out
			},
		},
		{
			invariant: "pure-link-faults-blameless",
			spec: scenario.Spec{
				Board: scenario.BoardUnprotected, Run: time.Second,
				Link: scenario.LinkSpec{DropRate: 0.2},
			},
			pass: func() []scenario.Record {
				v := cleanVerdict()
				v.Final.LinkGaps = 7
				v.Health = "degraded"
				return baseTrace(v)
			},
			violate: func(r []scenario.Record) []scenario.Record {
				r[len(r)-1].Verdict.Compromised = true // link loss blamed on attacker
				return r
			},
		},
		{
			invariant: "quiet-sky-clean",
			spec:      scenario.Spec{Board: scenario.BoardUnprotected, Run: time.Second},
			pass:      func() []scenario.Record { return baseTrace(cleanVerdict()) },
			violate: func(r []scenario.Record) []scenario.Record {
				r[len(r)-1].Verdict.Final.Garbage = 3 // garbage on a perfect link
				return r
			},
		},
		{
			invariant: "epoch-accounting",
			spec:      scenario.Spec{Board: scenario.BoardMAVR, Run: time.Second},
			pass: func() []scenario.Record {
				v := cleanVerdict()
				v.Final.Epoch = 1
				r := baseTrace(v)
				r[len(r)-2].Counters.Epoch = 1
				return r
			},
			violate: func(r []scenario.Record) []scenario.Record {
				r[len(r)-1].Verdict.Final.Epoch = 0 // epoch regressed
				return r
			},
		},
		{
			invariant: "epoch-accounting",
			spec:      scenario.Spec{Board: scenario.BoardUnprotected, Run: time.Second},
			pass:      func() []scenario.Record { return baseTrace(cleanVerdict()) },
			violate: func(r []scenario.Record) []scenario.Record {
				r[len(r)-2].Counters.Epoch = 1 // epoch without a master
				return r
			},
		},
		{
			invariant: "counters-monotone",
			spec:      scenario.Spec{Board: scenario.BoardUnprotected, Run: time.Second},
			pass:      func() []scenario.Record { return baseTrace(cleanVerdict()) },
			violate: func(r []scenario.Record) []scenario.Record {
				r[len(r)-1].Verdict.Final.Pulses = 3 // fewer pulses than the checkpoint
				return r
			},
		},
		{
			invariant: "injections-recorded",
			spec:      unprotV2,
			pass: func() []scenario.Record {
				v := cleanVerdict()
				v.AttackLanded = true
				return withInject(baseTrace(v), ms(100), "v2 write")
			},
			violate: func(r []scenario.Record) []scenario.Record {
				var out []scenario.Record
				for _, rec := range r {
					if rec.Kind == "inject" {
						continue // the planned injection vanished from the trace
					}
					out = append(out, rec)
				}
				return out
			},
		},
	}

	for _, c := range cases {
		t.Run(c.invariant, func(t *testing.T) {
			// The invariant must actually apply to the fixture spec.
			applies := false
			for _, inv := range Invariants() {
				if inv.Name == c.invariant && inv.Applies(c.spec.Effective()) {
					applies = true
				}
			}
			if !applies {
				t.Fatalf("fixture spec not in %s's domain", c.invariant)
			}
			pass := c.pass()
			if ds := CheckAll(c.spec, pass); hasViolation(ds, c.invariant) {
				t.Fatalf("passing fixture flagged: %v", names(ds))
			}
			bad := c.violate(c.pass())
			ds := CheckAll(c.spec, bad)
			if !hasViolation(ds, c.invariant) {
				t.Fatalf("mutated fixture not flagged by %s (got %v)", c.invariant, names(ds))
			}
			for _, d := range ds {
				if d.Invariant == c.invariant && d.Detail == "" {
					t.Errorf("violation of %s carries no detail", c.invariant)
				}
			}
		})
	}
}

// Every invariant in the library must have at least one violating
// fixture above — a new invariant without a self-test fails here, the
// same way a new scenario without a golden trace fails the golden gate.
func TestEveryInvariantHasAFixture(t *testing.T) {
	covered := map[string]bool{
		"trace-well-formed": true, "stealthy-attack-invisible": true,
		"stealthy-never-silent": true, "crash-visible": true,
		"stale-chain-neutralized": true, "silence-begets-detection": true,
		"recovery-follows-detection": true, "pure-link-faults-blameless": true,
		"quiet-sky-clean": true, "epoch-accounting": true,
		"counters-monotone": true, "injections-recorded": true,
	}
	for _, inv := range Invariants() {
		if !covered[inv.Name] {
			t.Errorf("invariant %s has no violating fixture in TestInvariantFixtures", inv.Name)
		}
		if inv.Claim == "" {
			t.Errorf("invariant %s has no claim mapping", inv.Name)
		}
	}
}

// End-to-end: generated scenarios, actually run, satisfy the whole
// library (a small deterministic slice of the CI sweep), and so do the
// effectiveness and deployment-matrix runs mavr-bench prints: their
// patched build and boot-gadget kinds fall outside the invariants whose
// claims they do not make.
func TestGeneratedScenariosSatisfyInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenario simulations")
	}
	specs := append(scenario.Effectiveness(), scenario.Matrix()...)
	for seed := int64(1); seed <= 6; seed++ {
		specs = append(specs, Generate(seed))
	}
	for _, spec := range specs {
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatalf("%s (%s/%s): %v", spec.Name, spec.Board, spec.App, err)
		}
		for _, d := range CheckAll(spec, res.Records) {
			t.Errorf("%s (%s/%s): %s", spec.Name, spec.Board, spec.App, d)
		}
	}
}
