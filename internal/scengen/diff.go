package scengen

import (
	"mavr/internal/scenario"
)

// Differential pairing: the same Spec run on an unprotected board and
// on a MAVR board must produce traces that differ only in
// defense-attributable records. MAVR's whole value proposition is that
// it changes nothing the ground station sees during normal flight —
// same telemetry cadence, same counters, same link behaviour — so
// after stripping the records and counter fields the defense itself
// owns, the two traces must be byte-identical up to the first attack
// packet (after which behaviours legitimately diverge: that divergence
// is the paper's detection story, checked by the invariants instead).

// defense-attributable record kinds: present only because a master
// (or the software-only flash step) exists.
func defenseKind(kind string) bool {
	switch kind {
	case "boot", "randomized", "failure-detected", "reflash", "fault", "start":
		return true
	}
	return false
}

// NormalizeDifferential projects a trace onto its defense-independent
// core: defense records dropped, time rebased to application start
// (a MAVR board boots only after programming the randomized image),
// the trace truncated at the first injected packet, and the counter
// fields the defense owns (epoch, master statistics, silence maxima —
// which depend on boot timing) nulled out. The result is comparable
// byte-for-byte across board modes.
func NormalizeDifferential(recs []scenario.Record) []scenario.Record {
	// Rebase on the application-start boot record (absent on
	// unprotected boards, whose application starts at T=0).
	var t0 int64
	for _, r := range recs {
		if r.Kind == "boot" {
			t0 = r.T
		}
		if r.Kind == "inject" || r.Kind == "checkpoint" {
			break // only pre-flight boots set the time base
		}
	}
	var out []scenario.Record
	for _, r := range recs {
		if r.Kind == "inject" || r.Kind == "verdict" {
			break
		}
		if defenseKind(r.Kind) {
			continue
		}
		r.T -= t0
		if r.Counters != nil {
			c := *r.Counters
			c.Epoch = 0
			c.MaxSilence = 0
			c.MaxLinkSilence = 0
			r.Counters = &c
		}
		out = append(out, r)
	}
	return out
}

// InvariantDifferential names the differential property in Divergence
// reports.
const InvariantDifferential = "differential-defense-only"

// CompareDifferential normalizes both traces and reports the first
// divergence between their defense-independent cores, or nil when the
// defense is observation-equivalent up to the first attack packet.
func CompareDifferential(unprotected, mavr []scenario.Record) *scenario.Divergence {
	d := scenario.Compare(
		scenario.TraceString(NormalizeDifferential(unprotected)),
		scenario.TraceString(NormalizeDifferential(mavr)),
	)
	if d != nil {
		d.Invariant = InvariantDifferential
		d.Detail = "defense-independent trace cores differ (unprotected=golden side, mavr=got side)"
	}
	return d
}

// Differential flies spec's unprotected twin and compares its trace
// with mavr, the records of spec flown on a MAVR board. The spec's own
// Board field is ignored; defense tuning fields (watchdog, randomize
// cadence) have no effect on the unprotected board.
func Differential(spec scenario.Spec, mavr []scenario.Record) (*scenario.Divergence, error) {
	u := spec
	u.Board = scenario.BoardUnprotected
	u.Name = spec.Name + "-unprotected"
	ru, err := scenario.Run(u)
	if err != nil {
		return nil, err
	}
	return CompareDifferential(ru.Records, mavr), nil
}
