package scenario

import (
	"fmt"
	"time"
)

// Builtin returns the canonical paper scenarios, each locked down by a
// golden trace in testdata/golden/<name>.jsonl. Together they pin the
// paper's full claim set: the crash attack is loud, the stealthy
// attacks are invisible, MAVR turns the stealthy attack into a
// detected failure with in-flight recovery, and brute-force probing
// never accumulates knowledge against a re-randomizing victim.
func Builtin() []Spec {
	return []Spec{
		{
			// §IV-C / §VII-A: V1 performs its write but destroys the
			// stack; the board crashes and the ground station alarms.
			Name:  "v1-crash",
			Notes: "V1 write-mem chain lands its write, smashes the stack and crashes the board; the GCS detects the compromise",
			Board: BoardUnprotected,
			Seed:  1,
			Run:   1500 * time.Millisecond,
			Injections: []Injection{
				{At: 200 * time.Millisecond, Kind: InjectV1, Value: 0x7F},
			},
		},
		{
			// §IV-D: the stealthy clean-return attack: same write, frame
			// repaired, telemetry uninterrupted, GCS sees nothing.
			Name:  "v2-stealthy-clean-return",
			Notes: "V2 pivots into the buffer, writes, repairs the frame and returns cleanly; the GCS verdict stays clean",
			Board: BoardUnprotected,
			Seed:  1,
			Run:   1500 * time.Millisecond,
			Injections: []Injection{
				{At: 200 * time.Millisecond, Kind: InjectV2, Value: 0x40},
			},
		},
		{
			// §IV-E: the trampoline — staged packets build a large chain
			// in free SRAM, a final pivot executes it, all stealthy.
			Name:  "v3-trampoline",
			Notes: "V3 stages a multi-write chain into free SRAM over several stealthy packets, then pivots into it",
			Board: BoardUnprotected,
			Seed:  1,
			Run:   2 * time.Second,
			Injections: []Injection{
				{At: 200 * time.Millisecond, Kind: InjectV3, Value: 0x33, Addr: 0x1900, StageWrites: 4},
			},
		},
		{
			// §V, §VII-A: the same stale V2 payload against MAVR: the
			// chain misfires on the randomized layout, the watchdog
			// detects the failure, the master re-randomizes and the
			// vehicle recovers in flight.
			Name:            "v2-vs-mavr-detected",
			Notes:           "stale V2 payload vs the randomized board: write fails, master detects and re-randomizes, vehicle recovers",
			Board:           BoardMAVR,
			Seed:            7,
			WatchdogTimeout: 20 * time.Millisecond,
			Run:             3 * time.Second,
			Injections: []Injection{
				{At: 200 * time.Millisecond, Kind: InjectV2, Value: 0x7F},
			},
		},
		{
			// Chaos conformance: a healthy vehicle behind a partitioning,
			// corrupting downlink. Every impairment must land in the
			// link-side taxonomy (link gaps, corruption drops, booked
			// outages) — the verdict stays clear of compromise and the
			// graded health is a link verdict, never a vehicle one.
			Name:  "chaos-pure-link-faults",
			Notes: "partition outages and datagram corruption against a healthy vehicle: degradation and link death, zero compromise evidence",
			Board: BoardUnprotected,
			Seed:  13,
			Run:   3 * time.Second,
			Chaos: ChaosSpec{PartitionRate: 0.2, PartitionWindow: 8192, CorruptRate: 0.05},
		},
		{
			// Chaos conformance, the other direction: a real stale-V2
			// attack against MAVR must still be detected through 30%
			// datagram loss plus chaos partitions and corruption — link
			// faults must not grant the attacker cover.
			Name:            "chaos-v2-detected-through-loss",
			Notes:           "stale V2 vs MAVR through 30% loss, partitions and corruption: the crash is still detected and recovered",
			Board:           BoardMAVR,
			Seed:            7,
			WatchdogTimeout: 20 * time.Millisecond,
			Run:             3 * time.Second,
			Link:            LinkSpec{DropRate: 0.3},
			Chaos:           ChaosSpec{PartitionRate: 0.15, PartitionWindow: 4096, CorruptRate: 0.05},
			Injections: []Injection{
				{At: 200 * time.Millisecond, Kind: InjectV2, Value: 0x7F},
			},
		},
		{
			// §V-D / §VIII-A: blind gadget probes against a
			// re-randomizing victim over a lossy downlink — every probe
			// triggers detection + a fresh epoch, so eliminations never
			// accumulate, and datagram loss stays classified as link
			// gaps rather than compromise.
			Name:            "bruteforce-under-rerandomization",
			Notes:           "three blind gadget probes, each detected and answered with a new randomization epoch; downlink loss tolerated",
			Board:           BoardMAVR,
			Seed:            11,
			WatchdogTimeout: 20 * time.Millisecond,
			Run:             6 * time.Second,
			Link:            LinkSpec{DropRate: 0.03},
			Injections: []Injection{
				{At: 200 * time.Millisecond, Kind: InjectProbe, Candidate: 0x000400, Value: 0x7F},
				{At: 2200 * time.Millisecond, Kind: InjectProbe, Candidate: 0x000800, Value: 0x7F},
				{At: 4200 * time.Millisecond, Kind: InjectProbe, Candidate: 0x000C00, Value: 0x7F},
			},
		},
	}
}

// Effectiveness returns the two §VII-A effectiveness runs, in print
// order: the stealthy V2 payload built against the stock image, sent
// 100ms into the flight of the unprotected board, then of the MAVR
// board. Each run's Notes is its label in mavr-bench's output.
func Effectiveness() []Spec {
	v2 := []Injection{{At: 100 * time.Millisecond, Kind: InjectV2, Value: 0x7F}}
	return []Spec{
		{Name: "effectiveness-unprotected", Notes: "unprotected board", Board: BoardUnprotected,
			Run: 500 * time.Millisecond, Injections: v2},
		{Name: "effectiveness-mavr", Notes: "MAVR board", Board: BoardMAVR, Seed: 5,
			WatchdogTimeout: 20 * time.Millisecond, Run: 4100 * time.Millisecond, Injections: v2},
	}
}

// Matrix returns the deployment-matrix rows, in print order: a payload
// made against the stock vulnerable build, sent 100ms into a 3.1s
// flight, against every deployment configuration the paper discusses.
// Each row's Notes is its label in mavr-bench's table.
func Matrix() []Spec {
	inj := func(kind string) []Injection {
		return []Injection{{At: 100 * time.Millisecond, Kind: kind, Value: 0x7F}}
	}
	mavr := func(name, notes, kind string) Spec {
		return Spec{Name: name, Notes: notes, Board: BoardMAVR, Seed: 5,
			WatchdogTimeout: 20 * time.Millisecond, Run: 3100 * time.Millisecond, Injections: inj(kind)}
	}
	return []Spec{
		{Name: "matrix-unprotected", Notes: "unprotected APM, vulnerable FW, V2", Board: BoardUnprotected,
			Run: 3100 * time.Millisecond, Injections: inj(InjectV2)},
		{Name: "matrix-unprotected-patched", Notes: "unprotected APM, patched FW, V2", Board: BoardUnprotected,
			Patched: true, Run: 3100 * time.Millisecond, Injections: inj(InjectV2)},
		{Name: "matrix-software-only", Notes: "software-only randomization, V2", Board: BoardSoftwareOnly,
			Seed: 3, Run: 3100 * time.Millisecond, Injections: inj(InjectV2)},
		mavr("matrix-mavr", "MAVR, V2", InjectV2),
		// §VI-B4: the resident bootloader is never randomized, so its
		// gadgets outlive every permutation. The plain write lands but
		// dies with the crash and the recovery reflash; the EEPROM write
		// persists through it.
		mavr("matrix-mavr-boot-v1", "MAVR + serial bootloader, boot-gadget V1", InjectBootV1),
		mavr("matrix-mavr-boot-eeprom", "MAVR + bootloader, boot-gadget EEPROM V1", InjectBootEEPROM),
	}
}

// Lookup resolves a builtin scenario by name.
func Lookup(name string) (Spec, error) {
	for _, s := range Builtin() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: no builtin scenario %q", name)
}
