// Package scenario is the deterministic end-to-end harness that proves
// the paper's attack→detection→recovery story as one replayable
// artifact. A Spec declares a complete experiment — board build,
// firmware profile, downlink fault schedule, timed attack injections,
// defense toggles and a run length in simulated time — and Run drives
// board.System + the fleet's fault schedule + gcs.Monitor from that
// single description, emitting a canonical JSONL trace of every
// observable event: boots, randomization epochs, watchdog verdicts,
// reflashes, faults, injected packets, per-frame MAVLink arrivals,
// pulse/link gaps, garbage, periodic counter checkpoints and a final
// verdict.
//
// Everything downstream of the Spec is a pure function of it: the
// firmware generator, the randomizing master, the attack payload
// builder, the link fault schedule (chaos.Config.Fate) and the
// single-goroutine runner are all seeded, wall-clock-free and
// map-iteration-free (enforced by the determinism vettool — this
// package is in its deterministic set). Two runs of the same Spec
// therefore produce byte-identical traces on any machine, under -race,
// at any GOMAXPROCS — which is what makes the checked-in golden traces
// in testdata/golden conformance tests rather than flaky snapshots:
// any divergence from golden is a behaviour change, never noise.
package scenario

import (
	"time"

	"mavr/internal/board"
	"mavr/internal/firmware"
)

// Spec declares one scenario. The zero value of every field has a
// sensible default (see withDefaults); a Spec is fully serializable so
// scenarios can also be loaded from JSON.
type Spec struct {
	// Name identifies the scenario (and its golden trace file).
	Name string `json:"name"`
	// Notes documents what the scenario demonstrates.
	Notes string `json:"notes,omitempty"`

	// Board selects the build: "unprotected" (the attack target
	// baseline), "software-only" (the §VIII-A strawman) or "mavr" (the
	// full defense).
	Board string `json:"board"`
	// App is the firmware profile name: "testapp" (default),
	// "arduplane", "arducopter" or "ardurover".
	App string `json:"app,omitempty"`
	// Patched flashes the build with the PARAM_SET length check (the
	// profile's Vulnerable cleared). The attacker still analyzes the
	// vulnerable build, so the payloads are the ones that would own an
	// unpatched vehicle.
	Patched bool `json:"patched,omitempty"`
	// Seed drives every random choice in the scenario: the master's
	// permutation source (or the software-only flash-time permutation).
	Seed int64 `json:"seed"`

	// WatchdogTimeout, RandomizeEvery and ProgramBaud tune the master
	// (zero = board defaults). SkipVerify disables the pre-flash static
	// verifier.
	WatchdogTimeout time.Duration `json:"watchdogTimeoutNs,omitempty"`
	RandomizeEvery  int           `json:"randomizeEvery,omitempty"`
	ProgramBaud     int           `json:"programBaud,omitempty"`
	SkipVerify      bool          `json:"skipVerify,omitempty"`

	// Run is the simulated flight time after boot.
	Run time.Duration `json:"runNs"`
	// SilenceThreshold is the ground station's vehicle-silent alarm
	// threshold (default 200ms).
	SilenceThreshold time.Duration `json:"silenceThresholdNs,omitempty"`

	// Link is the downlink fault schedule. The zero value is a perfect
	// serial link; any impairment switches the transport to
	// record-aligned datagrams and the monitor to TolerateLinkLoss.
	Link LinkSpec `json:"link,omitempty"`

	// Chaos is the deterministic chaos schedule layered under the link
	// faults: contiguous partition outages and in-flight datagram
	// corruption, drawn from internal/chaos with this Spec's Seed. Like
	// Link, any impairment switches the transport to record-aligned
	// datagrams and the monitor to TolerateLinkLoss.
	Chaos ChaosSpec `json:"chaos,omitempty"`

	// Injections are the attacker's timed packets.
	Injections []Injection `json:"injections,omitempty"`

	// Observe, when set, is invoked with the assembled system after the
	// firmware is flashed and before the first boot — test
	// instrumentation (e.g. the VSA soundness oracle hooks the emulator
	// and the master's randomization path here). Never serialized; the
	// canonical trace is unaffected as long as the hook only observes.
	Observe func(*board.System) `json:"-"`
}

// LinkSpec is the deterministic downlink loss and duplication,
// applied per record-aligned datagram via chaos.Config.Fate.
type LinkSpec struct {
	// DropRate is the datagram loss probability in [0, 1].
	DropRate float64 `json:"dropRate,omitempty"`
	// DupRate is the probability a datagram is delivered twice.
	DupRate float64 `json:"dupRate,omitempty"`
}

// Active reports whether the schedule impairs traffic at all.
func (l LinkSpec) Active() bool { return l.DropRate > 0 || l.DupRate > 0 }

// ChaosSpec is the scenario-facing slice of the chaos engine: the link
// faults a single-goroutine replay can realize (board faults need the
// live supervised fleet; see cmd/mavr-chaos). Partitions drop whole
// windows of consecutive datagrams — a contiguous radio outage, which
// the monitor must charge to the link, never the vehicle.
type ChaosSpec struct {
	// PartitionRate is the per-window probability the downlink is dark
	// for a whole window of consecutive datagrams.
	PartitionRate float64 `json:"partitionRate,omitempty"`
	// PartitionWindow is the window length in datagram sequence numbers
	// (default 64).
	PartitionWindow int `json:"partitionWindow,omitempty"`
	// CorruptRate is the per-datagram probability of in-flight byte
	// damage; the transport checksum turns every hit into whole-datagram
	// loss, surfaced to the monitor as a corruption drop.
	CorruptRate float64 `json:"corruptRate,omitempty"`
}

// Active reports whether the chaos schedule impairs traffic at all.
func (c ChaosSpec) Active() bool { return c.PartitionRate > 0 || c.CorruptRate > 0 }

// Injection is one timed attack from the malicious ground station.
type Injection struct {
	// At is the send time, measured in sim time from the end of boot.
	At time.Duration `json:"atNs"`
	// Kind selects the payload generation: "v1" (§IV-C crash-after
	// write), "v2" (§IV-D stealthy clean return), "v3" (§IV-E
	// trampoline), "probe" (§VIII-A blind gadget guess at Candidate),
	// "synth" (a synthesized chain) or one of the two §VI-B4
	// boot-gadget kinds, "boot-v1" and "boot-eeprom".
	Kind string `json:"kind"`
	// Addr is the data-space address of the 3-byte write (default
	// firmware.AddrGyroCfg). A "boot-eeprom" injection writes the
	// EEPROM cell firmware.EEPROMCfgAddr instead.
	Addr uint16 `json:"addr,omitempty"`
	// Value is the first written byte.
	Value byte `json:"value"`
	// StageWrites is the number of 3-byte writes a v3 attack stages
	// (default 4); StageAddr is the staging area (default
	// firmware.AddrFreeMem); Spacing separates the staged packets
	// (default 30ms).
	StageWrites int           `json:"stageWrites,omitempty"`
	StageAddr   uint16        `json:"stageAddr,omitempty"`
	Spacing     time.Duration `json:"spacingNs,omitempty"`
	// Candidate is the word address a "probe" assumes the write_mem
	// gadget lives at.
	Candidate uint32 `json:"candidate,omitempty"`
}

// Board modes.
const (
	BoardUnprotected  = "unprotected"
	BoardSoftwareOnly = "software-only"
	BoardMAVR         = "mavr"
)

// Injection kinds.
const (
	InjectV1    = "v1"
	InjectV2    = "v2"
	InjectV3    = "v3"
	InjectProbe = "probe"
	// InjectSynth delivers a coverage-guided synthesized chain
	// (attack.Synthesize) instead of a hand-authored V1/V2 layout: the
	// payload comes from whatever pivot/writer shapes the search found,
	// seeded by the Spec's Seed.
	InjectSynth = "synth"
	// InjectBootV1 is V1 over the gadgets of the resident serial
	// bootloader, which sits at a fixed address MAVR never randomizes
	// (§VI-B4): the write lands on every permutation.
	InjectBootV1 = "boot-v1"
	// InjectBootEEPROM is the same boot-gadget V1 driving the EEPROM
	// controller (attack.EEPROMCfgWrites): Value persists at
	// firmware.EEPROMCfgAddr, and the firmware loads it into the gyro
	// configuration at every boot, the master's recovery reflash
	// included.
	InjectBootEEPROM = "boot-eeprom"
)

func (s Spec) withDefaults() Spec {
	if s.Board == "" {
		s.Board = BoardUnprotected
	}
	if s.App == "" {
		s.App = "testapp"
	}
	if s.SilenceThreshold == 0 {
		s.SilenceThreshold = 200 * time.Millisecond
	}
	if s.Run == 0 {
		s.Run = time.Second
	}
	return s
}

// Effective is the Spec with every defaulted field resolved — exactly
// what Run executes. Trace invariants evaluate against the effective
// Spec so guards can read Run and SilenceThreshold without re-deriving
// the defaults.
func (s Spec) Effective() Spec { return s.withDefaults() }

func (i Injection) withDefaults() Injection {
	if i.Addr == 0 {
		i.Addr = firmware.AddrGyroCfg
	}
	if i.StageWrites == 0 {
		i.StageWrites = 4
	}
	if i.StageAddr == 0 {
		i.StageAddr = firmware.AddrFreeMem
	}
	if i.Spacing == 0 {
		i.Spacing = 30 * time.Millisecond
	}
	return i
}
