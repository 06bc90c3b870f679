package netlink

import (
	"time"

	"mavr/internal/detrand"
)

// SimConfig describes the impairments of a simulated radio link. The
// zero value is a perfect link.
type SimConfig struct {
	// Seed selects the impairment schedule. Two links with the same
	// seed, link name and sequence numbers see the same schedule.
	Seed int64
	// DropRate is the datagram loss probability in [0, 1].
	DropRate float64
	// DupRate is the probability a datagram is delivered twice.
	DupRate float64
	// Latency delays every datagram by this base amount.
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) extra delay per datagram;
	// inverted delays between consecutive datagrams are what produce
	// reordering.
	Jitter time.Duration
}

// Active reports whether the simulator would alter traffic at all.
func (c SimConfig) Active() bool {
	return c.DropRate > 0 || c.DupRate > 0 || c.Latency > 0 || c.Jitter > 0
}

// Fate is the scheduled treatment of one datagram.
type Fate struct {
	// Drop discards the datagram entirely.
	Drop bool
	// Copies is the number of deliveries (1 normally, 2 when
	// duplicated); 0 when dropped.
	Copies int
	// Delay is the injected latency before (each) delivery.
	Delay time.Duration
}

// Fate returns the treatment of datagram seq on the named link. It is
// a pure function of (Seed, link, seq): no shared RNG state, so the
// schedule is reproducible regardless of how many goroutines or
// vehicles interleave their sends, across runs and worker counts.
// Link names identify a direction of a vehicle's radio (e.g.
// "v7/down"), deliberately excluding ephemeral peer ports.
func (c SimConfig) Fate(link string, seq uint32) Fate {
	if !c.Active() {
		return Fate{Copies: 1}
	}
	base := detrand.Hash(uint64(c.Seed)) ^ detrand.FNV64(link) ^ (uint64(seq) * detrand.Gamma)
	if c.DropRate > 0 && detrand.Unit(detrand.Hash(base+1)) < c.DropRate {
		return Fate{Drop: true}
	}
	f := Fate{Copies: 1}
	if c.DupRate > 0 && detrand.Unit(detrand.Hash(base+2)) < c.DupRate {
		f.Copies = 2
	}
	f.Delay = c.Latency
	if c.Jitter > 0 {
		f.Delay += time.Duration(detrand.Unit(detrand.Hash(base+3)) * float64(c.Jitter))
	}
	return f
}
