// Package chaos is the deterministic, seeded fault-injection engine
// behind the fleet's resilience surface. It schedules the faults a
// deployed MAVR ground segment must survive — board panics and hangs,
// clock stalls, link partitions (symmetric or asymmetric), datagram
// corruption and session churn — as pure functions of
// (seed, fault kind, entity, tick), exactly like the link simulator's
// Fate (internal/netlink): no shared RNG state, no wall clock, so the
// same seed always yields the same schedule regardless of goroutine
// interleaving, worker counts or host machine. That purity is what
// lets a chaos soak print a byte-identical schedule trace per seed
// (cmd/mavr-chaos -schedule) and lets internal/scenario bake chaos
// into golden conformance traces.
//
// The engine only decides *what* goes wrong and *when*; realizing the
// fault (panicking a driver goroutine, dropping a datagram, flipping a
// byte) is the caller's job. The package is in the determinism
// vettool's enforced set.
package chaos

import (
	"time"

	"mavr/internal/detrand"
)

// Dir names a link direction relative to the vehicle: Down is
// vehicle→ground (telemetry), Up is ground→vehicle (commands).
type Dir int

// Link directions.
const (
	Down Dir = iota
	Up
)

func (d Dir) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// BoardFaultKind discriminates per-tick board fates.
type BoardFaultKind int

// Board fault kinds.
const (
	// FaultNone: the tick proceeds normally.
	FaultNone BoardFaultKind = iota
	// FaultPanic crashes the board's driver (a supervised fleet
	// recovers it; an unsupervised one dies — the point of the test).
	FaultPanic
	// FaultHang freezes the board entirely for Ticks ticks: no
	// simulation progress, no telemetry, no beacons. From the ground it
	// is indistinguishable from a dead link.
	FaultHang
	// FaultStall freezes the board's simulated clock for Ticks ticks
	// while the radio keeps beaconing: datagrams arrive carrying a
	// frozen sim time — the signature of a wedged autopilot.
	FaultStall
)

func (k BoardFaultKind) String() string {
	switch k {
	case FaultPanic:
		return "panic"
	case FaultHang:
		return "hang"
	case FaultStall:
		return "stall"
	}
	return "none"
}

// BoardFault is one board's fate for one tick.
type BoardFault struct {
	Kind BoardFaultKind
	// Ticks is the fault duration (hang/stall; 0 for panic).
	Ticks int
}

// Corruption describes one datagram's scheduled bit damage.
type Corruption struct {
	// Offset selects the damaged byte; callers reduce it modulo the
	// datagram length.
	Offset uint64
	// XOR is the flip mask, never zero.
	XOR byte
}

// Config declares a chaos schedule. The zero value injects nothing.
// All rates are probabilities in [0, 1], evaluated independently per
// (entity, tick/seq/window) from Seed.
type Config struct {
	// Seed selects the schedule. Same seed, same faults.
	Seed int64

	// PanicRate is the per-tick probability a board's driver panics.
	PanicRate float64
	// HangRate is the per-tick probability a board freezes entirely
	// for HangTicks ticks (default 25).
	HangRate  float64
	HangTicks int
	// StallRate is the per-tick probability a board's sim clock stalls
	// for StallTicks ticks (default 25) while its radio keeps beaconing.
	StallRate  float64
	StallTicks int

	// PartitionDownRate / PartitionUpRate are the per-window
	// probabilities that a vehicle's telemetry / command direction is
	// partitioned (every datagram in the window dropped). Unequal rates
	// model asymmetric loss; PartitionWindow is the window length in
	// datagram sequence numbers (default 64).
	PartitionDownRate float64
	PartitionUpRate   float64
	PartitionWindow   int

	// CorruptRate is the per-datagram probability of a byte flip in
	// flight (the transport checksum turns it into loss at the
	// receiver — never garbage).
	CorruptRate float64

	// ChurnRate is the per-(station, interval) probability that a soak
	// station tears its session down and rejoins — session-table
	// pressure for cmd/mavr-chaos.
	ChurnRate float64
}

// Active reports whether the schedule injects anything at all.
func (c Config) Active() bool { return c.BoardActive() || c.LinkActive() || c.ChurnRate > 0 }

// BoardActive reports whether any board fault is scheduled.
func (c Config) BoardActive() bool {
	return c.PanicRate > 0 || c.HangRate > 0 || c.StallRate > 0
}

// LinkActive reports whether any link fault is scheduled.
func (c Config) LinkActive() bool {
	return c.PartitionDownRate > 0 || c.PartitionUpRate > 0 || c.CorruptRate > 0
}

func (c Config) hangTicks() int {
	if c.HangTicks > 0 {
		return c.HangTicks
	}
	return 25
}

func (c Config) stallTicks() int {
	if c.StallTicks > 0 {
		return c.StallTicks
	}
	return 25
}

func (c Config) partitionWindow() uint64 {
	if c.PartitionWindow > 0 {
		return uint64(c.PartitionWindow)
	}
	return 64
}

// key mixes (seed, domain, entity, tick) into one well-distributed
// 64-bit hash — the per-decision randomness source.
func (c Config) key(domain string, entity uint64, tick uint64) uint64 {
	return detrand.Hash(uint64(c.Seed)) ^ detrand.FNV64(domain) ^
		detrand.Hash(entity*0xA24BAED4963EE407+1) ^ (tick * detrand.Gamma)
}

// BoardFate returns board sysID's fate at tick. Callers are expected
// to skip fate checks while a previous hang/stall window is still
// running (see BoardSchedule, which models the same skipping).
func (c Config) BoardFate(sysID byte, tick uint64) BoardFault {
	if !c.BoardActive() {
		return BoardFault{}
	}
	k := c.key("board", uint64(sysID), tick)
	if c.PanicRate > 0 && detrand.Unit(detrand.Hash(k+1)) < c.PanicRate {
		return BoardFault{Kind: FaultPanic}
	}
	if c.HangRate > 0 && detrand.Unit(detrand.Hash(k+2)) < c.HangRate {
		return BoardFault{Kind: FaultHang, Ticks: c.hangTicks()}
	}
	if c.StallRate > 0 && detrand.Unit(detrand.Hash(k+3)) < c.StallRate {
		return BoardFault{Kind: FaultStall, Ticks: c.stallTicks()}
	}
	return BoardFault{}
}

// Partitioned reports whether the datagram with sequence number seq on
// vehicle sysID's dir link falls in a partitioned window. Whole
// windows of PartitionWindow consecutive sequence numbers share a
// fate, so a partition is a contiguous outage, not i.i.d. loss.
func (c Config) Partitioned(dir Dir, sysID byte, seq uint32) bool {
	rate := c.PartitionDownRate
	if dir == Up {
		rate = c.PartitionUpRate
	}
	if rate <= 0 {
		return false
	}
	w := uint64(seq) / c.partitionWindow()
	k := c.key("partition/"+dir.String(), uint64(sysID), w)
	return detrand.Unit(detrand.Hash(k+4)) < rate
}

// Corrupt returns the scheduled damage for the datagram with sequence
// number seq on vehicle sysID's dir link, if any.
func (c Config) Corrupt(dir Dir, sysID byte, seq uint32) (Corruption, bool) {
	if c.CorruptRate <= 0 {
		return Corruption{}, false
	}
	k := c.key("corrupt/"+dir.String(), uint64(sysID), uint64(seq))
	if detrand.Unit(detrand.Hash(k+5)) >= c.CorruptRate {
		return Corruption{}, false
	}
	x := byte(detrand.Hash(k + 6))
	if x == 0 {
		x = 0xFF
	}
	return Corruption{Offset: detrand.Hash(k + 7), XOR: x}, true
}

// Churn reports whether soak station should tear down and rejoin its
// session at interval tick.
func (c Config) Churn(station uint64, tick uint64) bool {
	if c.ChurnRate <= 0 {
		return false
	}
	k := c.key("churn", station, tick)
	return detrand.Unit(detrand.Hash(k+8)) < c.ChurnRate
}

// Backoff returns a supervisor's restart delay for entity's attempt-th
// consecutive restart: exponential from base, capped at ceil, with
// deterministic jitter in [d/2, d) keyed on (seed, entity, attempt) —
// boards crashed by the same chaos tick do not restart in lockstep,
// yet the same seed always yields the same restart schedule.
func Backoff(seed int64, entity uint64, attempt int, base, ceil time.Duration) time.Duration {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = time.Second
	}
	d := base
	for i := 0; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	k := detrand.Hash(uint64(seed)) ^ detrand.FNV64("backoff") ^
		detrand.Hash(entity+1) ^ detrand.Hash(uint64(attempt)+0x9E37)
	half := d / 2
	return half + time.Duration(detrand.Unit(detrand.Hash(k))*float64(half))
}
