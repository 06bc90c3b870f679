package attack_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"mavr/internal/attack"
	"mavr/internal/core"
	"mavr/internal/firmware"
)

// The synthesizer must find a working chain against the unprotected
// build of at least 3 of the 4 firmware profiles without any
// hand-authored gadget knowledge (the acceptance bar; in practice all
// four yield a stealthy clean-return chain).
func TestSynthesizeAcrossProfiles(t *testing.T) {
	profiles := append([]firmware.AppSpec{firmware.TestApp()}, firmware.Profiles()...)
	found := 0
	for _, p := range profiles {
		img, err := firmware.Generate(p, firmware.ModeMAVR)
		if err != nil {
			t.Fatal(err)
		}
		s, err := attack.Synthesize(img.ELF, attack.SynthOptions{Stealth: true, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		t.Logf("%s: gadgets=%d pivots=%d writers=%d attempts=%d found=%v stealthy=%v",
			p.Name, s.GadgetCount, s.PivotShapes, s.WriterShapes, s.Attempts, s.Found, s.Stealthy)
		if s.Found {
			found++
		}
		if p.Name == "testapp" && !s.Stealthy {
			t.Errorf("testapp: no stealthy chain synthesized (log: %+v)", s.Log)
		}
	}
	if found < 3 {
		t.Errorf("synthesis found chains for %d/%d profiles, want >= 3", found, len(profiles))
	}
}

// Same seed, same binary — byte-identical search: the trial log and the
// winning payload must match across runs.
func TestSynthesizeDeterministic(t *testing.T) {
	img := genImage(t)
	opts := attack.SynthOptions{Stealth: true, Seed: 42}
	s1, err := attack.Synthesize(img.ELF, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := attack.Synthesize(img.ELF, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Log, s2.Log) {
		t.Errorf("trial logs differ across runs:\n%+v\n%+v", s1.Log, s2.Log)
	}
	if !bytes.Equal(s1.Payload, s2.Payload) {
		t.Error("synthesized payloads differ across runs")
	}
}

// PayloadFor rebuilds the synthesized chain for an arbitrary write; the
// result must land stealthily on the attacker's copy: write present, no
// fault, UART drained.
func TestSynthesisPayloadForLandsCleanly(t *testing.T) {
	img := genImage(t)
	s, err := attack.Synthesize(img.ELF, attack.SynthOptions{Stealth: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Stealthy {
		t.Fatal("no stealthy chain on testapp")
	}
	w := attack.Write{Addr: firmware.AddrFreeMem + 0x40, Vals: [3]byte{0x11, 0x22, 0x33}}
	p, err := s.PayloadFor(w)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := attack.NewSim(img.Flash)
	if err != nil {
		t.Fatal(err)
	}
	if fault := sim.Deliver(attack.Frame(p), 500_000); fault != nil {
		t.Fatalf("stealthy payload faulted: %v", fault)
	}
	for i := 0; i < 3; i++ {
		if got := sim.CPU.Data[w.Addr+uint16(i)]; got != w.Vals[i] {
			t.Errorf("Data[0x%04X] = 0x%02X, want 0x%02X", w.Addr+uint16(i), got, w.Vals[i])
		}
	}
}

// A chain synthesized against epoch-0 knowledge must misfire when the
// victim re-randomizes underneath it — the chain spans a
// re-randomization epoch and every shaped address points into a
// different function body.
func TestSynthesizedChainStaleAcrossEpoch(t *testing.T) {
	img := genImage(t)
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	r, err := core.Randomize(pre, core.Permutation(rng, len(pre.Blocks)))
	if err != nil {
		t.Fatal(err)
	}

	s, err := attack.SynthesizeAgainst(img.ELF, r.Image, attack.SynthOptions{Stealth: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Found {
		t.Errorf("stale shape set found a chain against the re-randomized image: %+v", s.Log)
	}

	// And the epoch-0 payload itself, replayed verbatim, must not land.
	s0, err := attack.Synthesize(img.ELF, attack.SynthOptions{Stealth: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := attack.NewSim(r.Image)
	if err != nil {
		t.Fatal(err)
	}
	_ = sim.Deliver(attack.Frame(s0.Payload), 500_000)
	if sim.CPU.Data[firmware.AddrGyroCfg] == 0x5A {
		t.Error("stale epoch-0 payload landed its write on the re-randomized image")
	}
}

// The cost curve is the paper's n! bound measured: trivial cost at
// epoch 0, full-budget exhaustion (stale shapes + blind probes) at
// every later epoch.
func TestSynthesisCostCurveShape(t *testing.T) {
	const budget = 24
	pts, err := attack.SynthesisCostCurve(firmware.TestApp(), 2, budget, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("curve has %d points, want 3", len(pts))
	}
	if !pts[0].Found || !pts[0].Stealthy || pts[0].Attempts > 4 {
		t.Errorf("epoch 0 = %+v, want a cheap stealthy hit", pts[0])
	}
	for _, pt := range pts[1:] {
		if pt.Found {
			t.Errorf("epoch %d: stale knowledge found a chain (%+v)", pt.Epoch, pt)
		}
		if pt.Attempts != budget {
			t.Errorf("epoch %d spent %d attempts, want the full budget %d", pt.Epoch, pt.Attempts, budget)
		}
		if pt.Blind == 0 {
			t.Errorf("epoch %d fired no blind probes (%+v)", pt.Epoch, pt)
		}
	}
}

// Hunt edge cases: an empty candidate list spends nothing and finds
// nothing; a failing image source propagates its error.
func TestHuntEdgeCases(t *testing.T) {
	img := genImage(t)
	geom := analyze(t, img)

	res, err := attack.HuntFixedLayout(img.Flash, geom, nil, 0x9A)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes != 0 || res.Found {
		t.Errorf("empty hunt = %+v, want zero probes, not found", res)
	}

	wantErr := errors.New("flash read failed")
	res, err = attack.HuntRerandomized(func() ([]byte, error) { return nil, wantErr },
		geom, []uint32{geom.WriteMem.StoreAddr}, 0x9A)
	if !errors.Is(err, wantErr) {
		t.Errorf("hunt error = %v, want %v", err, wantErr)
	}
	if res.Probes != 1 || res.Found {
		t.Errorf("failed hunt = %+v, want one probe, not found", res)
	}
}

// Chain-builder edge cases: empty write lists are rejected, and a chain
// that outgrows the vulnerable frame reports ErrPayloadTooLong.
func TestChainEdgeCases(t *testing.T) {
	img := genImage(t)
	a := analyze(t, img)

	if _, err := attack.BuildV1(a); err == nil {
		t.Error("BuildV1 with no writes succeeded")
	}

	// Each V2 write costs a loader frame + ret; enough of them overflow
	// the in-buffer chain region.
	var many []attack.Write
	for i := 0; i < 12; i++ {
		many = append(many, attack.Write{Addr: firmware.AddrFreeMem + uint16(3*i), Vals: [3]byte{1, 2, 3}})
	}
	if _, err := attack.BuildV2(a, many...); !errors.Is(err, attack.ErrPayloadTooLong) {
		t.Errorf("oversized V2 chain error = %v, want ErrPayloadTooLong", err)
	}
}

// BenchmarkAttackSynthesize is the full two-phase chain synthesis
// (landing + stealth) from a cold gadget scan of the test application —
// the attacker-side cost a generative scenario pays for each synth
// injection.
func BenchmarkAttackSynthesize(b *testing.B) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := attack.Synthesize(img.ELF, attack.SynthOptions{Stealth: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !s.Found {
			b.Fatal("synthesis found no chain")
		}
	}
}
