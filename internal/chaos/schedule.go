package chaos

import (
	"fmt"
	"strings"
)

// Event is one scheduled board fault, as it would fire against a
// driver that skips fate checks while a hang/stall window runs.
type Event struct {
	Tick  uint64
	SysID byte
	Kind  BoardFaultKind
	// Ticks is the window length for hang/stall events.
	Ticks int
}

func (e Event) String() string {
	if e.Ticks > 0 {
		return fmt.Sprintf("tick=%d v%d %s ticks=%d", e.Tick, e.SysID, e.Kind, e.Ticks)
	}
	return fmt.Sprintf("tick=%d v%d %s", e.Tick, e.SysID, e.Kind)
}

// BoardSchedule enumerates the board faults the engine would inject
// against vehicles 1..vehicles over the first ticks ticks, in
// (sysID, tick) order. It models the driver contract: after a
// hang/stall event, fate checks resume only once the window has
// elapsed (a panicking driver restarts on the next tick — the restart
// backoff happens in wall time and does not consume ticks).
func (c Config) BoardSchedule(vehicles int, ticks uint64) []Event {
	if !c.BoardActive() {
		return nil
	}
	var events []Event
	for v := 1; v <= vehicles; v++ {
		sysID := byte(v)
		for t := uint64(0); t < ticks; t++ {
			f := c.BoardFate(sysID, t)
			if f.Kind == FaultNone {
				continue
			}
			events = append(events, Event{Tick: t, SysID: sysID, Kind: f.Kind, Ticks: f.Ticks})
			if f.Ticks > 0 {
				t += uint64(f.Ticks)
			}
		}
	}
	return events
}

// LinkDigest folds the partitions and corruption of the first seqs
// datagrams of every direction of vehicles 1..vehicles into one hash:
// a compact fingerprint of the link-fault schedule, printable next to
// the board schedule so two runs of the same seed can be
// byte-compared. Loss, duplication and delay are not folded in, so the
// recorded digests hold whatever the link rates are.
func (c Config) LinkDigest(vehicles int, seqs uint32) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(x uint64) {
		h ^= x
		h *= 0x100000001b3
	}
	for v := 1; v <= vehicles; v++ {
		sysID := byte(v)
		for _, dir := range []Dir{Down, Up} {
			for s := uint32(0); s < seqs; s++ {
				if c.partitioned(dir, sysID, s) {
					mix(uint64(s)<<1 | 1)
				}
				if cor, ok := c.corrupt(dir, sysID, s); ok {
					mix(cor.Offset ^ uint64(cor.XOR))
				}
			}
		}
	}
	return h
}

// ScheduleTrace renders the full deterministic schedule (board events
// plus the link digest) as a text block — the byte-identical-per-seed
// artifact cmd/mavr-chaos prints and CI diffs across runs.
func (c Config) ScheduleTrace(vehicles int, ticks uint64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos seed=%d vehicles=%d ticks=%d\n", c.Seed, vehicles, ticks)
	for _, e := range c.BoardSchedule(vehicles, ticks) {
		fmt.Fprintf(&sb, "board %s\n", e)
	}
	fmt.Fprintf(&sb, "linkdigest %016x\n", c.LinkDigest(vehicles, uint32(ticks)))
	return sb.String()
}
