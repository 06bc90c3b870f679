package scengen

import (
	"fmt"
	"time"

	"mavr/internal/board"
	"mavr/internal/scenario"
)

// An Invariant is one machine-checked property over a scenario trace.
// Applies guards the property's preconditions against the *effective*
// Spec (defaults resolved); Check returns nil when the property holds
// and a structured Divergence — the same shape golden-trace comparison
// reports — when it does not.
type Invariant struct {
	// Name is the stable identifier, reported in Divergence.Invariant.
	Name string
	// Claim is the paper claim the invariant mechanizes (EXPERIMENTS.md
	// maps these to sections).
	Claim string
	// Applies reports whether the trace of spec is in this invariant's
	// domain.
	Applies func(spec scenario.Spec) bool
	// Check evaluates the property over the trace records.
	Check func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence
}

// violation builds the structured report for invariant name, anchored
// at trace line (1-based; 0 = whole trace).
func violation(name string, line int, detail string, args ...any) *scenario.Divergence {
	return &scenario.Divergence{
		Line:      line,
		Reason:    "violated",
		Invariant: name,
		Detail:    fmt.Sprintf(detail, args...),
	}
}

// verdictOf returns the trace's final verdict record, or nil.
func verdictOf(recs []scenario.Record) *scenario.Verdict {
	if len(recs) == 0 {
		return nil
	}
	last := recs[len(recs)-1]
	if last.Kind != "verdict" {
		return nil
	}
	return last.Verdict
}

// hasKind reports whether any injection of spec is of kind.
func hasKind(spec scenario.Spec, kind string) bool {
	for _, inj := range spec.Injections {
		if inj.Kind == kind {
			return true
		}
	}
	return false
}

// kindsWithin reports whether every injection kind is in allowed.
func kindsWithin(spec scenario.Spec, allowed ...string) bool {
	for _, inj := range spec.Injections {
		ok := false
		for _, a := range allowed {
			if inj.Kind == a {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// watchdogOf is the effective master watchdog timeout.
func watchdogOf(spec scenario.Spec) time.Duration {
	if spec.WatchdogTimeout > 0 {
		return spec.WatchdogTimeout
	}
	return board.DefaultWatchdogTimeout
}

// quiet reports whether the spec runs a perfect downlink.
func quiet(spec scenario.Spec) bool {
	return !spec.Link.Active() && !spec.Chaos.Active()
}

// Invariants returns the full invariant library, in evaluation order.
func Invariants() []Invariant {
	return []Invariant{
		{
			Name:    "trace-well-formed",
			Claim:   "every run yields a complete canonical trace: start first, verdict last, time monotone",
			Applies: func(scenario.Spec) bool { return true },
			Check: func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence {
				if len(recs) == 0 {
					return violation("trace-well-formed", 0, "empty trace")
				}
				if recs[0].Kind != "start" {
					return violation("trace-well-formed", 1, "first record is %q, not start", recs[0].Kind)
				}
				if v := verdictOf(recs); v == nil {
					return violation("trace-well-formed", len(recs), "last record is %q, not a verdict", recs[len(recs)-1].Kind)
				}
				for i := 1; i < len(recs); i++ {
					if recs[i].T < recs[i-1].T {
						return violation("trace-well-formed", i+1, "time went backwards: %d after %d", recs[i].T, recs[i-1].T)
					}
				}
				return nil
			},
		},
		{
			Name:  "stealthy-attack-invisible",
			Claim: "§IV-D/§VII-A: clean-return attacks on an unprotected board land and leave no compromise evidence",
			Applies: func(spec scenario.Spec) bool {
				// A patched build bounds the PARAM_SET copy: nothing lands.
				return spec.Board == scenario.BoardUnprotected && !spec.Patched && len(spec.Injections) > 0 &&
					kindsWithin(spec, scenario.InjectV2, scenario.InjectV3) && quiet(spec)
			},
			Check: func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence {
				v := verdictOf(recs)
				switch {
				case v == nil:
					return violation("stealthy-attack-invisible", len(recs), "no verdict")
				case !v.AttackLanded:
					return violation("stealthy-attack-invisible", len(recs), "stealthy chain did not land on the unprotected board")
				case !v.BoardAlive:
					return violation("stealthy-attack-invisible", len(recs), "stealthy chain crashed the board")
				case v.Compromised:
					return violation("stealthy-attack-invisible", len(recs), "GCS flagged a compromise for a clean-return attack")
				}
				return nil
			},
		},
		{
			Name:  "stealthy-never-silent",
			Claim: "§IV-D: a clean-return V2 never trips the VehicleSilent alarm, even behind a lossy link",
			Applies: func(spec scenario.Spec) bool {
				return spec.Board == scenario.BoardUnprotected && hasKind(spec, scenario.InjectV2) &&
					kindsWithin(spec, scenario.InjectV2, scenario.InjectV3) && spec.Chaos.PartitionRate == 0
			},
			Check: func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence {
				if v := verdictOf(recs); v != nil && v.VehicleSilent {
					return violation("stealthy-never-silent", len(recs), "VehicleSilent tripped on a clean-return attack")
				}
				return nil
			},
		},
		{
			Name:  "crash-visible",
			Claim: "§IV-C/§VII-A: the crash-grade V1 kills the board and the silence is detected",
			Applies: func(spec scenario.Spec) bool {
				if spec.Board != scenario.BoardUnprotected || spec.Chaos.PartitionRate != 0 {
					return false
				}
				for _, inj := range spec.Injections {
					if inj.Kind == scenario.InjectV1 &&
						inj.At+spec.SilenceThreshold+300*time.Millisecond <= spec.Run {
						return true
					}
				}
				return false
			},
			Check: func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence {
				v := verdictOf(recs)
				switch {
				case v == nil:
					return violation("crash-visible", len(recs), "no verdict")
				case v.BoardAlive:
					return violation("crash-visible", len(recs), "board survived a V1 crash chain")
				case !v.VehicleSilent:
					return violation("crash-visible", len(recs), "crashed board did not trip VehicleSilent")
				case !v.Compromised:
					return violation("crash-visible", len(recs), "crashed board did not yield a compromise verdict")
				}
				return nil
			},
		},
		{
			Name:  "stale-chain-neutralized",
			Claim: "§V/§VIII-A: a chain built against the stock layout never reaches its payload on a randomized board",
			Applies: func(spec scenario.Spec) bool {
				// Boot-gadget chains are not stale: the bootloader is
				// never randomized (§VI-B4), and an EEPROM write
				// survives the recovery reflash by design.
				return spec.Board != scenario.BoardUnprotected && len(spec.Injections) > 0 &&
					!kindsWithin(spec, scenario.InjectProbe) &&
					!hasKind(spec, scenario.InjectBootV1) && !hasKind(spec, scenario.InjectBootEEPROM)
			},
			Check: func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence {
				if v := verdictOf(recs); v != nil && v.AttackLanded {
					return violation("stale-chain-neutralized", len(recs), "stale chain landed its write on board=%s", spec.Board)
				}
				return nil
			},
		},
		{
			Name:  "silence-begets-detection",
			Claim: "§V-A2: whenever the ground station saw fatal silence, the MAVR watchdog (an order of magnitude faster) detected it too",
			Applies: func(spec scenario.Spec) bool {
				return spec.Board == scenario.BoardMAVR && spec.Chaos.PartitionRate == 0 &&
					watchdogOf(spec) < spec.SilenceThreshold
			},
			Check: func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence {
				v := verdictOf(recs)
				if v == nil || !v.VehicleSilent {
					return nil
				}
				if v.FailuresDetected == 0 {
					return violation("silence-begets-detection", len(recs), "GCS saw %dms of silence but the master detected nothing", v.Final.MaxSilence/1e6)
				}
				if !v.Compromised {
					return violation("silence-begets-detection", len(recs), "fatal silence without a compromise verdict")
				}
				return nil
			},
		},
		{
			Name:  "recovery-follows-detection",
			Claim: "§V-C/§VII-B: every detected failure is answered by an in-flight reflash within the programming time",
			Applies: func(spec scenario.Spec) bool {
				// The reflash window is app-size-dependent; only the small
				// test application reprograms (553ms) fast enough to demand
				// recovery inside a short scenario.
				return spec.Board == scenario.BoardMAVR && spec.App == "testapp"
			},
			Check: func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence {
				end := recs[len(recs)-1].T
				for i, r := range recs {
					if r.Kind != "failure-detected" {
						continue
					}
					if end-r.T < int64(800*time.Millisecond) {
						continue // not enough tail to demand the reflash
					}
					reflashed := false
					for _, rr := range recs[i:] {
						if rr.Kind == "reflash" && rr.T <= r.T+int64(700*time.Millisecond) {
							reflashed = true
							break
						}
					}
					if !reflashed {
						return violation("recovery-follows-detection", i+1, "failure detected at %dms never reflashed", r.T/1e6)
					}
				}
				return nil
			},
		},
		{
			Name:  "pure-link-faults-blameless",
			Claim: "chaos conformance: link impairment alone never produces compromise evidence or a vehicle-side verdict",
			Applies: func(spec scenario.Spec) bool {
				return len(spec.Injections) == 0 && (spec.Link.Active() || spec.Chaos.Active())
			},
			Check: func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence {
				v := verdictOf(recs)
				switch {
				case v == nil:
					return violation("pure-link-faults-blameless", len(recs), "no verdict")
				case !v.BoardAlive:
					return violation("pure-link-faults-blameless", len(recs), "board died under pure link faults")
				case v.Compromised:
					return violation("pure-link-faults-blameless", len(recs), "link faults produced a compromise verdict")
				case v.VehicleSilent:
					return violation("pure-link-faults-blameless", len(recs), "link faults were booked as vehicle silence")
				case v.Health == "vehicle-dead" || v.Health == "compromised":
					return violation("pure-link-faults-blameless", len(recs), "graded health %q blames the vehicle for link faults", v.Health)
				case v.Final.Garbage > 0:
					return violation("pure-link-faults-blameless", len(recs), "%d garbage bytes from a faulty but uncompromised link", v.Final.Garbage)
				}
				return nil
			},
		},
		{
			Name:  "quiet-sky-clean",
			Claim: "baseline: no attack and no impairment yields a spotless verdict and zero anomaly counters",
			Applies: func(spec scenario.Spec) bool {
				return len(spec.Injections) == 0 && quiet(spec)
			},
			Check: func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence {
				v := verdictOf(recs)
				if v == nil {
					return violation("quiet-sky-clean", len(recs), "no verdict")
				}
				if v.Compromised || v.VehicleSilent || v.AttackLanded || !v.BoardAlive {
					return violation("quiet-sky-clean", len(recs), "unclean verdict on a quiet run: %+v", *v)
				}
				f := v.Final
				if f.SeqGaps != 0 || f.Garbage != 0 || f.FrameErrors != 0 || f.LinkGaps != 0 ||
					f.CorruptDrops != 0 || f.LinkOutages != 0 {
					return violation("quiet-sky-clean", len(recs), "anomaly counters nonzero on a quiet run: %+v", f)
				}
				return nil
			},
		},
		{
			Name:    "epoch-accounting",
			Claim:   "§V-C: the randomization epoch only advances, never appears without a master, and MAVR boots randomized",
			Applies: func(scenario.Spec) bool { return true },
			Check: func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence {
				prev := 0
				for i, r := range recs {
					var e int
					switch {
					case r.Kind == "checkpoint" && r.Counters != nil:
						e = r.Counters.Epoch
					case r.Kind == "verdict" && r.Verdict != nil:
						e = r.Verdict.Final.Epoch
					default:
						continue
					}
					if spec.Board != scenario.BoardMAVR && e != 0 {
						return violation("epoch-accounting", i+1, "epoch %d on a masterless board", e)
					}
					if e < prev {
						return violation("epoch-accounting", i+1, "epoch regressed %d -> %d", prev, e)
					}
					prev = e
				}
				if spec.Board == scenario.BoardMAVR && prev < 1 {
					return violation("epoch-accounting", len(recs), "MAVR board finished at epoch %d, want >= 1", prev)
				}
				return nil
			},
		},
		{
			Name:    "counters-monotone",
			Claim:   "trace soundness: every cumulative monitor counter is non-decreasing across checkpoints",
			Applies: func(scenario.Spec) bool { return true },
			Check: func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence {
				var prev *scenario.Counters
				for i, r := range recs {
					var c *scenario.Counters
					switch {
					case r.Kind == "checkpoint" && r.Counters != nil:
						c = r.Counters
					case r.Kind == "verdict" && r.Verdict != nil:
						c = &r.Verdict.Final
					default:
						continue
					}
					if prev != nil {
						if field, ok := counterRegression(prev, c); ok {
							return violation("counters-monotone", i+1, "counter %s regressed", field)
						}
					}
					prev = c
				}
				return nil
			},
		},
		{
			Name:  "injections-recorded",
			Claim: "trace soundness: every planned injection appears as an inject record carrying its payload digest",
			Applies: func(spec scenario.Spec) bool {
				return len(spec.Injections) > 0
			},
			Check: func(spec scenario.Spec, recs []scenario.Record) *scenario.Divergence {
				n := 0
				for i, r := range recs {
					if r.Kind != "inject" {
						continue
					}
					n++
					if r.Payload == "" || r.N == 0 {
						return violation("injections-recorded", i+1, "inject record without payload digest or size")
					}
				}
				// Recovery reprogramming is accounted in sim time: a
				// reflash of a heavy image can consume the remaining
				// run budget, so later injections legitimately never
				// fire. A reflash implies at least one injection
				// already landed on the wire, so the floor drops to 1.
				want := len(spec.Injections)
				for _, r := range recs {
					if r.Kind == "reflash" {
						want = 1
						break
					}
				}
				if n < want {
					return violation("injections-recorded", len(recs), "%d inject records for %d planned injections", n, len(spec.Injections))
				}
				return nil
			},
		},
	}
}

// counterRegression reports the first cumulative counter of cur that
// is smaller than in prev.
func counterRegression(prev, cur *scenario.Counters) (string, bool) {
	checks := []struct {
		name       string
		prev, curv int64
	}{
		{"pulses", int64(prev.Pulses), int64(cur.Pulses)},
		{"seqGaps", int64(prev.SeqGaps), int64(cur.SeqGaps)},
		{"linkGaps", int64(prev.LinkGaps), int64(cur.LinkGaps)},
		{"garbage", int64(prev.Garbage), int64(cur.Garbage)},
		{"heartbeats", int64(prev.Heartbeats), int64(cur.Heartbeats)},
		{"frameErrors", int64(prev.FrameErrors), int64(cur.FrameErrors)},
		{"rawImus", int64(prev.RawIMUs), int64(cur.RawIMUs)},
		{"paramEchoes", int64(prev.ParamEchoes), int64(cur.ParamEchoes)},
		{"maxSilenceNs", prev.MaxSilence, cur.MaxSilence},
		{"linkOutages", int64(prev.LinkOutages), int64(cur.LinkOutages)},
		{"corruptDrops", int64(prev.CorruptDrops), int64(cur.CorruptDrops)},
		{"maxLinkSilenceNs", prev.MaxLinkSilence, cur.MaxLinkSilence},
	}
	for _, c := range checks {
		if c.curv < c.prev {
			return c.name, true
		}
	}
	return "", false
}

// CheckAll evaluates every applicable invariant against the trace and
// returns the violations in library order (empty = all hold).
func CheckAll(spec scenario.Spec, recs []scenario.Record) []*scenario.Divergence {
	eff := spec.Effective()
	var out []*scenario.Divergence
	for _, inv := range Invariants() {
		if !inv.Applies(eff) {
			continue
		}
		if d := inv.Check(eff, recs); d != nil {
			out = append(out, d)
		}
	}
	return out
}
