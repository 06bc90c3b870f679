package chaos

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// The acceptance property: for a fixed seed the datagram schedule is
// identical across runs and worker counts. Fate is a pure function of
// (seed, link, seq), so we verify (a) sequential and parallel
// regeneration agree exactly, and (b) the schedule is insensitive to
// evaluation order.
func TestFateDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{
		Seed:              42,
		PartitionDownRate: 0.1,
		CorruptRate:       0.05,
		DropRate:          0.1,
		DupRate:           0.05,
		Latency:           2 * time.Millisecond,
		Jitter:            8 * time.Millisecond,
	}
	const n = 10000
	link := Link{Dir: Down, SysID: 7, Name: "v7/down"}

	sequential := make([]Fate, n)
	for i := 0; i < n; i++ {
		sequential[i] = cfg.Fate(link, uint32(i))
	}

	for _, workers := range []int{1, 3, 16} {
		parallel := make([]Fate, n)
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := hi - 1; i >= lo; i-- { // reversed order on purpose
					parallel[i] = cfg.Fate(link, uint32(i))
				}
			}(lo, hi)
		}
		wg.Wait()
		if !reflect.DeepEqual(sequential, parallel) {
			t.Fatalf("schedule differs with %d workers", workers)
		}
	}
}

func TestFateRatesAndSpread(t *testing.T) {
	cfg := Config{Seed: 7, DropRate: 0.2, DupRate: 0.1, Jitter: 10 * time.Millisecond}
	link := Link{Dir: Down, SysID: 1, Name: "v1/down"}
	const n = 20000
	drops, dups, delayed := 0, 0, 0
	for i := 0; i < n; i++ {
		f := cfg.Fate(link, uint32(i))
		if f.Partitioned || f.Corrupted {
			t.Fatalf("datagram %d partitioned or corrupted at zero rates: %+v", i, f)
		}
		if f.Drop {
			drops++
			continue
		}
		if f.Copies == 2 {
			dups++
		}
		if f.Delay > 0 {
			delayed++
		}
		if f.Delay >= cfg.Jitter {
			t.Fatalf("delay %v out of range", f.Delay)
		}
	}
	if got := float64(drops) / n; got < 0.17 || got > 0.23 {
		t.Errorf("drop rate %.3f, want ~0.2", got)
	}
	if got := float64(dups) / (float64(n) * 0.8); got < 0.07 || got > 0.13 {
		t.Errorf("dup rate %.3f, want ~0.1", got)
	}
	if delayed == 0 {
		t.Error("jitter produced no delays")
	}
}

func TestFateLinksAreIndependent(t *testing.T) {
	cfg := Config{Seed: 3, DropRate: 0.5}
	v1 := Link{Dir: Down, SysID: 1, Name: "v1/down"}
	v2 := Link{Dir: Down, SysID: 2, Name: "v2/down"}
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if cfg.Fate(v1, uint32(i)).Drop == cfg.Fate(v2, uint32(i)).Drop {
			same++
		}
	}
	// Independent 50% coins agree about half the time; identical
	// schedules would agree always.
	if same > n*3/4 {
		t.Errorf("links correlated: %d/%d identical fates", same, n)
	}

	// Different seeds change the schedule.
	other := Config{Seed: 4, DropRate: 0.5}
	diff := false
	for i := 0; i < 100; i++ {
		if cfg.Fate(v1, uint32(i)).Drop != other.Fate(v1, uint32(i)).Drop {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("seed does not influence the schedule")
	}
}

func TestZeroConfigPassesEverything(t *testing.T) {
	var cfg Config
	for _, l := range []Link{{Dir: Down, SysID: 1, Name: "any"}, {Dir: Up, SysID: 9, Name: "v9/up"}} {
		for i := 0; i < 100; i++ {
			if f := cfg.Fate(l, uint32(i)); f != (Fate{Copies: 1}) {
				t.Fatalf("perfect link altered datagram %d on %s: %+v", i, l.Name, f)
			}
		}
	}
}
