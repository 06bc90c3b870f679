package scengen

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"mavr/internal/scenario"
)

func specJSON(t *testing.T, s scenario.Spec) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Same seed, same Spec — byte-identical JSON across repeated calls and
// across concurrent goroutines (the -race run proves the generator
// shares no hidden state).
func TestGenerateDeterministic(t *testing.T) {
	const seeds = 100
	want := make([]string, seeds)
	for i := range want {
		want[i] = specJSON(t, Generate(int64(i)))
	}
	for i := range want {
		if got := specJSON(t, Generate(int64(i))); got != want[i] {
			t.Fatalf("seed %d: second call differs:\n%s\n%s", i, want[i], got)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < seeds; i++ {
				b, err := json.Marshal(Generate(int64(i)))
				if err != nil || string(b) != want[i] {
					errs <- want[i]
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatalf("concurrent generation diverged from %s", bad)
	}
}

// A thousand consecutive seeds must explore the sampling space, not
// collapse onto a handful of Specs: after stripping the seed-derived
// name and seed, the overwhelming majority must still be distinct.
func TestGenerateSeedCollisions(t *testing.T) {
	const seeds = 1000
	distinct := make(map[string]int64, seeds)
	collisions := 0
	for i := int64(1); i <= seeds; i++ {
		s := Generate(i)
		s.Name = ""
		s.Seed = 0
		key := specJSON(t, s)
		if _, dup := distinct[key]; dup {
			collisions++
		} else {
			distinct[key] = i
		}
	}
	if collisions > 100 {
		t.Errorf("%d of %d seeds collided after name/seed stripping (%d distinct shapes)", collisions, seeds, len(distinct))
	}
}

// Structural validity of every generated Spec: the guarantees the
// invariant library's Applies guards rely on.
func TestGenerateStructuralValidity(t *testing.T) {
	boards := map[string]int{}
	kinds := map[string]int{}
	for i := int64(1); i <= 1000; i++ {
		s := Generate(i)
		boards[s.Board]++
		if s.Run < 400*time.Millisecond || s.Run > 3*time.Second {
			t.Fatalf("seed %d: run %v out of range", i, s.Run)
		}
		if s.Run%(50*time.Millisecond) != 0 {
			t.Fatalf("seed %d: run %v not quantized to 50ms", i, s.Run)
		}
		seenAddr := map[uint16]bool{}
		for j, inj := range s.Injections {
			kinds[inj.Kind]++
			if inj.Kind == scenario.InjectV1 && j != len(s.Injections)-1 {
				t.Fatalf("seed %d: crash-grade v1 is not the last injection", i)
			}
			if j > 0 {
				if gap := inj.At - s.Injections[j-1].At; gap < 150*time.Millisecond {
					t.Fatalf("seed %d: injections %d/%d only %v apart", i, j-1, j, gap)
				}
			}
			tail := 600 * time.Millisecond
			if inj.Kind == scenario.InjectV3 {
				tail = time.Second
			}
			if inj.At+tail > s.Run {
				t.Fatalf("seed %d: injection %d at %v leaves <%v of a %v run", i, j, inj.At, tail, s.Run)
			}
			if seenAddr[inj.Addr] {
				t.Fatalf("seed %d: duplicate injection address 0x%04X", i, inj.Addr)
			}
			seenAddr[inj.Addr] = true
			if inj.Value < 0x10 {
				t.Fatalf("seed %d: injection value 0x%02X could collide with zeroed memory", i, inj.Value)
			}
		}
	}
	for _, b := range []string{scenario.BoardUnprotected, scenario.BoardMAVR, scenario.BoardSoftwareOnly} {
		if boards[b] == 0 {
			t.Errorf("board mode %q never sampled", b)
		}
	}
	for _, k := range []string{scenario.InjectV1, scenario.InjectV2, scenario.InjectV3, scenario.InjectProbe, scenario.InjectSynth} {
		if kinds[k] == 0 {
			t.Errorf("injection kind %q never sampled", k)
		}
	}
}

// The stream itself is frozen: a changed constant or draw order shows
// up here before it silently re-shuffles every generated scenario.
func TestStreamFrozen(t *testing.T) {
	// Known answers recorded before the stream moved onto
	// internal/detrand. Adjacent seeds start one draw apart: the seeding
	// is linear in the seed, and every recorded digest depends on that.
	for i, w := range [][4]uint64{
		{0x6c7270f0a8f289c0, 0x5a8268fbda908004, 0x18708d58cedac3bb, 0xa08a7b4da9317b02},
		{0x5a8268fbda908004, 0x18708d58cedac3bb, 0xa08a7b4da9317b02, 0x8747d85d93a079cf},
		{0x18708d58cedac3bb, 0xa08a7b4da9317b02, 0x8747d85d93a079cf, 0xf1e2aec01d4a7778},
	} {
		seed := int64(i + 1)
		st := NewStream(seed)
		var got [4]uint64
		for i := range got {
			got[i] = st.Uint64()
		}
		if got != w {
			t.Errorf("NewStream(%d) draws = %#x, want %#x", seed, got, w)
		}
	}
	// Intn maps a draw with % n (not a multiply-shift); pin that too.
	st := NewStream(1)
	var got [12]int
	for i := range got {
		got[i] = st.Intn(10)
	}
	if w := [12]int{8, 4, 1, 6, 5, 0, 2, 3, 3, 2, 9, 5}; got != w {
		t.Errorf("NewStream(1).Intn(10) draws = %v, want %v", got, w)
	}
}
