package firmware_test

import (
	"testing"

	"mavr/internal/avr"
	"mavr/internal/firmware"
	"mavr/internal/mavlink"
)

// The timer ISR advances the uptime counter; the interrupt machinery
// (vector table, register save/restore, reti) must work end to end.
func TestTimerISRAdvancesUptime(t *testing.T) {
	img := genTest(t)
	tb := boot(t, img)
	// Let the firmware boot and enable interrupts.
	if f := tb.RunCycles(100_000); f != nil {
		t.Fatalf("fault: %v", f)
	}
	for i := 0; i < 5; i++ {
		tb.CPU.RaiseInterrupt(avr.VectorTimer0Ovf)
		if f := tb.RunCycles(20_000); f != nil {
			t.Fatalf("fault during ISR %d: %v", i, f)
		}
	}
	uptime := uint16(tb.CPU.Data[firmware.AddrUptime]) | uint16(tb.CPU.Data[firmware.AddrUptime+1])<<8
	if uptime != 5 {
		t.Errorf("uptime = %d, want 5", uptime)
	}
}

// Interrupt load must not corrupt the MAVLink receive path.
func TestParamSetUnderInterruptLoad(t *testing.T) {
	img := genTest(t)
	tb := boot(t, img)
	ps := &mavlink.ParamSet{ParamID: "RATE"}
	payload := ps.Marshal()
	payload[0] = 0x5C
	fr := &mavlink.Frame{MsgID: mavlink.MsgIDParamSet, Payload: payload}
	wire, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tb.Receive(wire...)
	for i := 0; i < 200; i++ {
		tb.CPU.RaiseInterrupt(avr.VectorTimer0Ovf)
		if f := tb.RunCycles(10_000); f != nil {
			t.Fatalf("fault: %v", f)
		}
	}
	if got := tb.CPU.Data[firmware.AddrParamVal]; got != 0x5C {
		t.Errorf("param value = 0x%02X, want 0x5C (corrupted under interrupts)", got)
	}
}

// PARAM_SET values persist to EEPROM (Fig. 1 configuration storage).
func TestParamSetPersistsToEEPROM(t *testing.T) {
	img := genTest(t)
	tb := boot(t, img)
	ps := &mavlink.ParamSet{ParamID: "X"}
	payload := ps.Marshal()
	payload[0] = 0x99
	fr := &mavlink.Frame{MsgID: mavlink.MsgIDParamSet, Payload: payload}
	wire, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tb.Receive(wire...)
	if f := tb.RunCycles(2_000_000); f != nil {
		t.Fatalf("fault: %v", f)
	}
	if got := tb.CPU.EEPROM[firmware.EEPROMParamAddr]; got != 0x99 {
		t.Errorf("EEPROM param byte = 0x%02X, want 0x99", got)
	}
}

// The canary build detects the overflow before the corrupted return
// address is used, but — as §IX notes — offers no recovery: the board
// halts.
func TestStackCanaryDetectsOverflowButCannotRecover(t *testing.T) {
	spec := firmware.TestApp()
	spec.StackCanaries = true
	img, err := firmware.Generate(spec, firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	tb := boot(t, img)
	fr := &mavlink.Frame{MsgID: mavlink.MsgIDParamSet, Payload: make([]byte, 200)}
	for i := range fr.Payload {
		fr.Payload[i] = 0xEE
	}
	wire, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tb.Receive(wire...)
	fault := tb.RunCycles(3_000_000)
	if fault == nil {
		t.Fatal("canary build kept running after smashing")
	}
	if fault.Kind != avr.FaultBreak {
		t.Errorf("fault = %v, want break (the canary-fail halt)", fault.Kind)
	}
	if got := tb.CPU.Data[firmware.AddrCanaryFails]; got != 1 {
		t.Errorf("canary-fail counter = %d, want 1", got)
	}
}

// The canary build still processes legitimate parameters.
func TestStackCanaryAllowsBenignTraffic(t *testing.T) {
	spec := firmware.TestApp()
	spec.StackCanaries = true
	img, err := firmware.Generate(spec, firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	tb := boot(t, img)
	ps := &mavlink.ParamSet{ParamID: "OK"}
	payload := ps.Marshal()
	payload[0] = 0x33
	fr := &mavlink.Frame{MsgID: mavlink.MsgIDParamSet, Payload: payload}
	wire, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tb.Receive(wire...)
	if f := tb.RunCycles(2_000_000); f != nil {
		t.Fatalf("fault: %v", f)
	}
	if got := tb.CPU.Data[firmware.AddrParamVal]; got != 0x33 {
		t.Errorf("param value = 0x%02X, want 0x33", got)
	}
	if got := len(img.ELF.FuncSymbols()); got != spec.Functions {
		t.Errorf("canary build has %d symbols, want %d", got, spec.Functions)
	}
}

// CanaryHandlerOverhead measures the extra cycles the canary costs per
// handled packet — the runtime cost §IX argues a 96%-utilized APM
// cannot afford (MAVR's runtime cost is zero).
func TestCanaryHandlerOverheadIsMeasurable(t *testing.T) {
	measure := func(canary bool) uint64 {
		spec := firmware.TestApp()
		spec.StackCanaries = canary
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			t.Fatal(err)
		}
		tb := boot(t, img)
		ps := &mavlink.ParamSet{ParamID: "T"}
		fr := &mavlink.Frame{MsgID: mavlink.MsgIDParamSet, Payload: ps.Marshal()}
		wire, err := fr.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		// Find handler entry/exit cycle counts across one packet.
		var handler uint32
		for _, s := range img.ELF.FuncSymbols() {
			if s.Name == "handle_param_set" {
				handler = s.Value / 2
			}
		}
		tb.Receive(wire...)
		ok, _ := tb.CPU.RunUntil(3_000_000, func(c *avr.CPU) bool { return c.PC == handler })
		if !ok {
			t.Fatal("handler never reached")
		}
		entry := tb.CPU.Cycles
		sp := tb.CPU.SP()
		ok, _ = tb.CPU.RunUntil(100_000, func(c *avr.CPU) bool { return c.SP() > sp })
		if !ok {
			t.Fatal("handler never returned")
		}
		return tb.CPU.Cycles - entry
	}
	plain := measure(false)
	canary := measure(true)
	if canary <= plain {
		t.Errorf("canary handler (%d cycles) not slower than plain (%d)", canary, plain)
	}
	t.Logf("handler cycles: plain=%d canary=%d (+%d per packet)", plain, canary, canary-plain)
}

// The prototype profile ships a bootloader in the fixed boot section.
func TestBootloaderGeneration(t *testing.T) {
	img := genTest(t)
	if img.Bootloader == nil {
		t.Fatal("testapp profile has no bootloader")
	}
	if len(img.Bootloader) > firmware.BootloaderMax {
		t.Errorf("bootloader %d bytes exceeds boot section", len(img.Bootloader))
	}
	full := img.FullFlash()
	if len(full) != avr.FlashSize {
		t.Fatalf("full flash = %d bytes", len(full))
	}
	for i, b := range img.Bootloader {
		if full[int(firmware.BootloaderStart)+i] != b {
			t.Fatal("bootloader not at BootloaderStart in full flash")
		}
	}
	// ISP build has none.
	spec := firmware.TestApp()
	spec.Bootloader = false
	isp, err := firmware.Generate(spec, firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	if isp.Bootloader != nil {
		t.Error("hardware-ISP build still has a bootloader")
	}
	if got := isp.FullFlash(); len(got) != len(isp.Flash) {
		t.Error("ISP full flash should equal the application image")
	}
}
