package attack_test

import (
	"strings"
	"testing"

	"mavr/internal/attack"
	"mavr/internal/firmware"
	"mavr/internal/gadget"
)

func genImage(t *testing.T) *firmware.Image {
	t.Helper()
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func analyze(t *testing.T, img *firmware.Image) *attack.Analysis {
	t.Helper()
	a, err := attack.Analyze(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnalyzeFindsGadgetsAndGeometry(t *testing.T) {
	img := genImage(t)
	a := analyze(t, img)
	if a.StkMove == nil || a.WriteMem == nil {
		t.Fatal("missing gadgets")
	}
	if n := len(gadget.Scan(img.ELF.Text, 24)); n < 50 {
		t.Errorf("gadget census = %d, implausibly low", n)
	}
	if a.FrameBytes != firmware.HandlerFrameBytes {
		t.Errorf("frame = %d, want %d", a.FrameBytes, firmware.HandlerFrameBytes)
	}
	if len(a.PushRegs) != firmware.HandlerSavedRegs {
		t.Errorf("push regs = %v, want %d registers", a.PushRegs, firmware.HandlerSavedRegs)
	}
	if a.OrigRet == 0 {
		t.Error("probe found zero return address")
	}
	// The buffer must sit below the saved registers in SRAM.
	if !(a.BufAddr < a.S0) {
		t.Errorf("buffer 0x%04X not below S0 0x%04X", a.BufAddr, a.S0)
	}
}

func TestGadgetScanFindsPaperShapes(t *testing.T) {
	img := genImage(t)
	gs := gadget.Scan(img.Flash, 24)
	sm, err := gadget.FindStkMove(gs)
	if err != nil {
		t.Fatal(err)
	}
	if sm.SPHReg != 29 || sm.SPLReg != 28 {
		t.Errorf("stk_move uses r%d/r%d, want r29/r28 (Fig. 4)", sm.SPHReg, sm.SPLReg)
	}
	wm, err := gadget.FindWriteMem(gs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if wm.StoreRegs != [3]int{5, 6, 7} {
		t.Errorf("write_mem stores %v, want r5..r7 (Fig. 5)", wm.StoreRegs)
	}
	if len(wm.PopRegs) < 16 {
		t.Errorf("write_mem pops %d regs, want >= 16", len(wm.PopRegs))
	}
	if wm.PopRegs[0] != 29 || wm.PopRegs[1] != 28 {
		t.Errorf("write_mem pop order starts %v, want r29, r28", wm.PopRegs[:2])
	}
}

// V1: the write lands but the board crashes afterwards (§IV-C).
func TestV1WritesButCrashes(t *testing.T) {
	img := genImage(t)
	a := analyze(t, img)
	payload, err := attack.BuildV1(a, attack.GyroCfgWrite(0x7F))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := attack.NewSim(img.Flash)
	if err != nil {
		t.Fatal(err)
	}
	fault := sim.Deliver(attack.Frame(payload), 500_000)
	if fault == nil {
		t.Fatal("V1 did not crash the board")
	}
	if got := sim.CPU.Data[firmware.AddrGyroCfg]; got != 0x7F {
		t.Errorf("gyro config = 0x%02X, want 0x7F (write did not land)", got)
	}
}

// V2: the write lands AND the board keeps flying (§IV-D).
func TestV2StealthyCleanReturn(t *testing.T) {
	img := genImage(t)
	a := analyze(t, img)
	payload, err := attack.BuildV2(a, attack.GyroCfgWrite(0x55))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := attack.NewSim(img.Flash)
	if err != nil {
		t.Fatal(err)
	}
	// Let it fly a little first.
	if f := sim.RunCycles(500_000); f != nil {
		t.Fatalf("pre-attack fault: %v", f)
	}
	txBefore := len(sim.TX())
	if f := sim.Deliver(attack.Frame(payload), 500_000); f != nil {
		t.Fatalf("V2 crashed the board: %v", f)
	}
	if got := sim.CPU.Data[firmware.AddrGyroCfg]; got != 0x55 {
		t.Errorf("gyro config = 0x%02X, want 0x55", got)
	}
	if !sim.RxIdle() {
		t.Error("firmware stopped consuming serial input")
	}
	// Telemetry must continue: pulses after the attack.
	if len(sim.TX()) <= txBefore+firmware.PulseSize {
		t.Error("telemetry stopped after the attack — not stealthy")
	}
	// The corrupted gyro must show up in later telemetry (raw 10 + 0x55).
	tx := sim.TX()
	found := false
	for i := len(tx) - 60; i+2 < len(tx); i++ {
		if i >= 0 && tx[i] == firmware.PulseMagic && tx[i+2] == byte(10+0x55) {
			found = true
			break
		}
	}
	if !found {
		t.Error("attacked gyro value never appeared in telemetry")
	}
}

// After the clean return the firmware must still process further
// legitimate packets — repeatable stealthy attacks (§IV-D).
func TestV2IsRepeatable(t *testing.T) {
	img := genImage(t)
	a := analyze(t, img)
	sim, err := attack.NewSim(img.Flash)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []byte{0x11, 0x22, 0x33} {
		payload, err := attack.BuildV2(a, attack.GyroCfgWrite(v))
		if err != nil {
			t.Fatal(err)
		}
		if f := sim.Deliver(attack.Frame(payload), 300_000); f != nil {
			t.Fatalf("attack %d crashed: %v", i, f)
		}
		if got := sim.CPU.Data[firmware.AddrGyroCfg]; got != v {
			t.Fatalf("attack %d: gyro config = 0x%02X, want 0x%02X", i, got, v)
		}
	}
}

// V3: an arbitrarily large staged payload, fully stealthy (§IV-E).
func TestV3TrampolineLargePayload(t *testing.T) {
	img := genImage(t)
	a := analyze(t, img)
	// Large payload: write a 60-byte block into SRAM at 0x1800 (twenty
	// 3-byte writes), far beyond what a single 255-byte frame chain
	// could carry.
	var big []attack.Write
	for i := 0; i < 20; i++ {
		big = append(big, attack.Write{
			Addr: 0x1800 + uint16(3*i),
			Vals: [3]byte{byte(i), byte(i + 100), byte(i + 200)},
		})
	}
	packets, err := attack.BuildV3(a, big, firmware.AddrFreeMem)
	if err != nil {
		t.Fatal(err)
	}
	if len(packets) < 20 {
		t.Fatalf("only %d staging packets", len(packets))
	}
	staged := attack.StagedChainLen(a, len(big))
	if staged <= 255 {
		t.Errorf("staged chain %d bytes — should exceed a single frame to demonstrate V3", staged)
	}

	sim, err := attack.NewSim(img.Flash)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range packets {
		if f := sim.Deliver(attack.Frame(p), 200_000); f != nil {
			t.Fatalf("packet %d/%d crashed the board: %v", i+1, len(packets), f)
		}
	}
	for i, w := range big {
		for j := 0; j < 3; j++ {
			if got := sim.CPU.Data[int(w.Addr)+j]; got != w.Vals[j] {
				t.Errorf("big write %d byte %d = 0x%02X, want 0x%02X", i, j, got, w.Vals[j])
			}
		}
	}
	// And the board is still alive.
	if f := sim.RunCycles(500_000); f != nil {
		t.Fatalf("board dead after V3: %v", f)
	}
}

// StagedChainLen is the length of the chain BuildV3 stages: one staging
// packet per 3 chain bytes, plus the final pivot packet.
func TestStagedChainLenMatchesBuildV3(t *testing.T) {
	for _, spec := range append([]firmware.AppSpec{firmware.TestApp()}, firmware.Profiles()...) {
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			t.Fatal(err)
		}
		a := analyze(t, img)
		for n := 1; n <= 20; n++ {
			packets, err := attack.BuildV3(a, katWrites(n), firmware.AddrFreeMem)
			if err != nil {
				t.Fatal(err)
			}
			staged := attack.StagedChainLen(a, n)
			if want := (staged+2)/3 + 1; len(packets) != want {
				t.Errorf("%s, %d writes: %d packets, want %d for a %d-byte staged chain",
					spec.Name, n, len(packets), want, staged)
			}
		}
	}
}

// The stealthy payload against a DIFFERENT (re-randomized) layout must
// fail — this is what MAVR exploits. Here we emulate the mismatch by
// attacking firmware generated with a different seed.
func TestV2AgainstDifferentLayoutFails(t *testing.T) {
	img := genImage(t)
	a := analyze(t, img)
	payload, err := attack.BuildV2(a, attack.GyroCfgWrite(0x99))
	if err != nil {
		t.Fatal(err)
	}
	other := firmware.TestApp()
	other.Seed = 0xBADC0DE
	otherImg, err := firmware.Generate(other, firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := attack.NewSim(otherImg.Flash)
	if err != nil {
		t.Fatal(err)
	}
	fault := sim.Deliver(attack.Frame(payload), 500_000)
	if fault == nil && sim.CPU.Data[firmware.AddrGyroCfg] == 0x99 {
		t.Error("stale payload still succeeded against a different layout")
	}
}

func TestTraceV2ProducesFig6Progression(t *testing.T) {
	img := genImage(t)
	a := analyze(t, img)
	snaps, err := attack.TraceV2(a, img.Flash, attack.GyroCfgWrite(0x55))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 6 {
		t.Fatalf("got %d snapshots, want 6", len(snaps))
	}
	// The pivot stage must show SP inside the overflowed buffer region.
	pivot := snaps[2]
	if !(pivot.SP >= a.BufAddr-2 && pivot.SP < a.S0) {
		t.Errorf("during payload execution SP=0x%04X, expected within buffer [0x%04X, 0x%04X)",
			pivot.SP, a.BufAddr-2, a.S0)
	}
	// The final stage must show SP where a normal handler return leaves
	// it (S0+3: the 3-byte return address consumed).
	last := snaps[len(snaps)-1]
	if last.SP != a.S0+3 {
		t.Errorf("after clean return SP=0x%04X, want 0x%04X", last.SP, a.S0+3)
	}
	for _, s := range snaps {
		if !strings.Contains(s.String(), "SP=") {
			t.Error("snapshot rendering broken")
		}
	}
}
