package chaos

import (
	"testing"
)

// Purity: the same (seed, entity, tick) always yields the same fate,
// and different seeds yield different schedules.
func TestFatesDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 42, PanicRate: 0.01, HangRate: 0.01, StallRate: 0.01,
		PartitionDownRate: 0.2, PartitionUpRate: 0.05, CorruptRate: 0.1,
	}
	for tick := uint64(0); tick < 5000; tick++ {
		a := cfg.BoardFate(3, tick)
		b := cfg.BoardFate(3, tick)
		if a != b {
			t.Fatalf("tick %d: fate not stable: %v vs %v", tick, a, b)
		}
	}
	for seq := uint32(0); seq < 5000; seq++ {
		if cfg.partitioned(Down, 1, seq) != cfg.partitioned(Down, 1, seq) {
			t.Fatalf("seq %d: partition fate not stable", seq)
		}
		c1, ok1 := cfg.corrupt(Up, 2, seq)
		c2, ok2 := cfg.corrupt(Up, 2, seq)
		if ok1 != ok2 || c1 != c2 {
			t.Fatalf("seq %d: corruption fate not stable", seq)
		}
	}
	other := cfg
	other.Seed = 43
	if cfg.LinkDigest(4, 2000) == other.LinkDigest(4, 2000) {
		t.Error("different seeds produced identical link digests")
	}
	if cfg.ScheduleTrace(4, 2000) != cfg.ScheduleTrace(4, 2000) {
		t.Error("schedule trace not byte-stable")
	}
}

// Rates behave like probabilities: observed frequencies land near the
// configured rates, zero rates fire never, rate 1 fires always.
func TestRates(t *testing.T) {
	cfg := Config{Seed: 7, PanicRate: 0.02}
	const n = 50000
	hits := 0
	for tick := uint64(0); tick < n; tick++ {
		if cfg.BoardFate(1, tick).Kind == FaultPanic {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.015 || got > 0.025 {
		t.Errorf("panic rate %.4f, want ~0.02", got)
	}

	if (Config{Seed: 7}).BoardFate(1, 123).Kind != FaultNone {
		t.Error("zero config injected a fault")
	}
	always := Config{Seed: 7, PartitionDownRate: 1}
	never := Config{Seed: 7, PartitionUpRate: 0.5}
	for seq := uint32(0); seq < 1000; seq++ {
		if !always.partitioned(Down, 1, seq) {
			t.Fatalf("rate-1 partition let seq %d through", seq)
		}
		if always.partitioned(Up, 1, seq) {
			t.Fatalf("down-only partition hit the uplink at seq %d", seq)
		}
		if never.partitioned(Down, 1, seq) {
			t.Fatalf("up-only partition hit the downlink at seq %d", seq)
		}
	}
}

// Partitions come in contiguous windows: within one window every seq
// shares its fate.
func TestPartitionWindows(t *testing.T) {
	cfg := Config{Seed: 3, PartitionDownRate: 0.3, PartitionWindow: 32}
	transitions := 0
	prev := cfg.partitioned(Down, 1, 0)
	for seq := uint32(1); seq < 32*200; seq++ {
		cur := cfg.partitioned(Down, 1, seq)
		if cur != prev {
			if seq%32 != 0 {
				t.Fatalf("partition fate flipped mid-window at seq %d", seq)
			}
			transitions++
		}
		prev = cur
	}
	if transitions == 0 {
		t.Error("no partition windows over 200 windows at rate 0.3")
	}
}

// Corruption never schedules a zero XOR mask (a no-op flip would make
// the checksum test vacuous).
func TestCorruptMaskNonZero(t *testing.T) {
	cfg := Config{Seed: 9, CorruptRate: 1}
	for seq := uint32(0); seq < 2000; seq++ {
		c, ok := cfg.corrupt(Down, 1, seq)
		if !ok {
			t.Fatalf("rate-1 corruption skipped seq %d", seq)
		}
		if c.XOR == 0 {
			t.Fatalf("zero XOR mask at seq %d", seq)
		}
	}
}

// The schedule enumerator skips fate checks inside hang/stall windows,
// mirroring the driver contract.
func TestBoardScheduleSkipsWindows(t *testing.T) {
	cfg := Config{Seed: 5, HangRate: 0.05}
	events := cfg.BoardSchedule(2, 5000)
	if len(events) == 0 {
		t.Fatal("no hang events at rate 0.05 over 5000 ticks")
	}
	var last map[byte]uint64 = map[byte]uint64{}
	for _, e := range events {
		if e.Kind != FaultHang || e.Ticks != HoldTicks {
			t.Fatalf("unexpected event %v", e)
		}
		if prev, ok := last[e.SysID]; ok && e.Tick <= prev+uint64(e.Ticks) {
			t.Fatalf("event %v fired inside the previous hang window (prev=%d)", e, prev)
		}
		last[e.SysID] = e.Tick
	}
}
