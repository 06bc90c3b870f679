package firmware_test

import (
	"testing"

	"mavr/internal/board"
	"mavr/internal/firmware"
	"mavr/internal/mavlink"
)

// testBoard is the vehicle's application processor with its downlink
// recorded.
type testBoard struct {
	*board.AppProcessor
	tx []byte
}

func boot(t *testing.T, img *firmware.Image) *testBoard {
	t.Helper()
	tb := &testBoard{AppProcessor: board.NewAppProcessor()}
	tb.OnTransmit(func(b byte) { tb.tx = append(tb.tx, b) })
	if err := tb.Program(img.Flash); err != nil {
		t.Fatal(err)
	}
	tb.Reset(true)
	return tb
}

func genTest(t *testing.T) *firmware.Image {
	t.Helper()
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestGenerateTestApp(t *testing.T) {
	img := genTest(t)
	if got := len(img.ELF.FuncSymbols()); got != firmware.TestApp().Functions {
		t.Errorf("function symbols = %d, want %d", got, firmware.TestApp().Functions)
	}
	if len(img.Flash) >= 128*1024 {
		t.Errorf("testapp image %d bytes, want < 128KB for direct pointers", len(img.Flash))
	}
	if img.Layout.FuncRegionEnd <= img.Layout.FuncRegionStart {
		t.Error("empty function region")
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a := genTest(t)
	b := genTest(t)
	if string(a.Flash) != string(b.Flash) {
		t.Error("two generations with the same seed differ")
	}
}

// pulse is one decoded telemetry pulse.
type pulse struct {
	seq, gyro, heading byte
}

// scanDownlink splits the interleaved downlink into pulses and MAVLink
// frames (returned raw).
func scanDownlink(t *testing.T, tx []byte) ([]pulse, [][]byte) {
	t.Helper()
	var pulses []pulse
	var frames [][]byte
	for i := 0; i < len(tx); {
		switch tx[i] {
		case firmware.PulseMagic:
			if i+firmware.PulseSize > len(tx) {
				return pulses, frames // trailing partial pulse
			}
			pulses = append(pulses, pulse{tx[i+1], tx[i+2], tx[i+3]})
			i += firmware.PulseSize
		case 0xFE:
			if i+2 > len(tx) {
				return pulses, frames
			}
			n := 6 + int(tx[i+1]) + 2
			if i+n > len(tx) {
				return pulses, frames
			}
			frames = append(frames, tx[i:i+n])
			i += n
		default:
			t.Fatalf("garbage byte 0x%02X at downlink offset %d", tx[i], i)
		}
	}
	return pulses, frames
}

func TestBootProducesTelemetryPulses(t *testing.T) {
	img := genTest(t)
	tb := boot(t, img)
	if f := tb.RunCycles(300000); f != nil {
		t.Fatalf("fault during boot: %v", f)
	}
	pulses, _ := scanDownlink(t, tb.tx)
	if len(pulses) < 3 {
		t.Fatalf("only %d pulses", len(pulses))
	}
	// Sequence numbers increase by one per pulse.
	for i := 1; i < len(pulses); i++ {
		if pulses[i].seq != pulses[i-1].seq+1 {
			t.Fatalf("pulse seq gap at %d: %d -> %d", i, pulses[i-1].seq, pulses[i].seq)
		}
	}
	// The gyro byte reflects raw sample + config (config starts 0);
	// the very first pulse precedes the first gyro_update.
	if pulses[1].gyro != 10 {
		t.Errorf("gyro byte = %d, want 10", pulses[1].gyro)
	}
}

// The firmware emits checksum-valid MAVLink HEARTBEAT and RAW_IMU
// frames on schedule.
func TestFirmwareEmitsValidHeartbeats(t *testing.T) {
	img := genTest(t)
	tb := boot(t, img)
	if f := tb.RunCycles(3_000_000); f != nil {
		t.Fatalf("fault: %v", f)
	}
	_, frames := scanDownlink(t, tb.tx)
	if len(frames) < 3 {
		t.Fatalf("only %d MAVLink frames", len(frames))
	}
	heartbeats, imus := 0, 0
	var lastSeq byte
	for i, raw := range frames {
		p := mavlink.Parser{StrictLength: true}
		got := p.FeedBytes(raw)
		if len(got) != 1 || p.Stats() != (mavlink.ParserStats{Frames: 1}) {
			t.Fatalf("frame %d invalid: %+v (% X)", i, p.Stats(), raw)
		}
		f := got[0]
		if n := 8 + len(f.Payload); n != len(raw) {
			t.Fatalf("frame %d: decoded %d of %d bytes", i, n, len(raw))
		}
		// All downlink frames share one MAVLink sequence counter.
		if i > 0 && f.Seq != lastSeq+1 {
			t.Errorf("frame %d: seq %d -> %d", i, lastSeq, f.Seq)
		}
		lastSeq = f.Seq
		switch f.MsgID {
		case mavlink.MsgIDHeartbeat:
			heartbeats++
			hb, err := mavlink.UnmarshalHeartbeat(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if hb.SystemStatus != mavlink.StateActive {
				t.Errorf("frame %d: status %d, want active", i, hb.SystemStatus)
			}
			if hb.Autopilot != 3 || hb.Type != 1 {
				t.Errorf("frame %d: type/autopilot %d/%d", i, hb.Type, hb.Autopilot)
			}
		case mavlink.MsgIDRawIMU:
			imus++
			imu, err := mavlink.UnmarshalRawIMU(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			// The x-gyro channel carries the live sensor value
			// (raw sample 10 + config 0).
			if imu.Xgyro != 10 {
				t.Errorf("frame %d: xgyro %d, want 10", i, imu.Xgyro)
			}
		default:
			t.Errorf("frame %d: unexpected msgid %d", i, f.MsgID)
		}
	}
	if heartbeats == 0 || imus == 0 {
		t.Errorf("heartbeats=%d raw_imu=%d — both streams expected", heartbeats, imus)
	}
}

// The navigation task derives the heading from the active waypoint in
// the .data mission table.
func TestNavUpdateDerivesHeadingFromWaypoints(t *testing.T) {
	img := genTest(t)
	tb := boot(t, img)
	if f := tb.RunCycles(500_000); f != nil {
		t.Fatalf("fault: %v", f)
	}
	wp := int(img.Layout.WaypointsAddr)
	lat := tb.CPU.Data[wp]
	lon := tb.CPU.Data[wp+2]
	want := lat ^ lon // waypoint 0 active while uptime < 256
	if got := tb.CPU.Data[firmware.AddrHeading]; got != want {
		t.Errorf("heading = 0x%02X, want 0x%02X (wp0 lat 0x%02X lon 0x%02X)", got, want, lat, lon)
	}
	pulses, _ := scanDownlink(t, tb.tx)
	if len(pulses) == 0 || pulses[len(pulses)-1].heading != want {
		t.Error("heading not reported in telemetry")
	}
}

// A conformant PARAM_SET frame must land in AddrParamVal.
func TestParamSetRoundTripThroughFirmware(t *testing.T) {
	img := genTest(t)
	tb := boot(t, img)
	ps := &mavlink.ParamSet{ParamValue: 0, ParamID: "RATE_RLL_P"}
	payload := ps.Marshal()
	payload[0], payload[1], payload[2], payload[3] = 0x11, 0x22, 0x33, 0x44
	fr := &mavlink.Frame{MsgID: mavlink.MsgIDParamSet, Payload: payload}
	wire, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tb.Receive(wire...)
	if f := tb.RunCycles(2000000); f != nil {
		t.Fatalf("fault: %v", f)
	}
	got := tb.CPU.Data[firmware.AddrParamVal : firmware.AddrParamVal+4]
	want := []byte{0x11, 0x22, 0x33, 0x44}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param value = % X, want % X", got, want)
		}
	}
}

// An over-long PARAM_SET with garbage payload smashes the handler's
// stack frame; the board must end up executing garbage (a fault), which
// is the paper's pre-stealth V1 symptom.
func TestOverflowWithGarbageCrashes(t *testing.T) {
	img := genTest(t)
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
	f := tb.RunCycles(2000000)
	if f == nil {
		t.Fatal("no fault after 200-byte overflow of a 64-byte buffer")
	}
}

// The patched (non-vulnerable) firmware clamps the copy and survives
// the same over-long frame.
func TestClampedHandlerSurvivesOverflow(t *testing.T) {
	spec := firmware.TestApp()
	spec.Vulnerable = false
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
	if f := tb.RunCycles(2000000); f != nil {
		t.Fatalf("clamped firmware faulted: %v", f)
	}
}

// The gyroscope configuration byte — loaded from persistent EEPROM
// configuration at startup (Fig. 1) — has a continuous effect on the
// reported sensor value (paper §IV-C).
func TestGyroConfigAffectsTelemetry(t *testing.T) {
	img := genTest(t)
	tb := boot(t, img)
	tb.CPU.EEPROM[firmware.EEPROMCfgAddr] = 100
	if f := tb.RunCycles(300000); f != nil {
		t.Fatalf("fault: %v", f)
	}
	// Find a pulse and check its gyro byte = 10 + 100.
	found := false
	for i := 0; i+2 < len(tb.tx); i += firmware.PulseSize {
		if tb.tx[i] == firmware.PulseMagic && tb.tx[i+2] == 110 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no pulse reported gyro 110; tx: % X", tb.tx[:minInt(24, len(tb.tx))])
	}
}

func TestTableIFunctionCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generation")
	}
	for _, spec := range firmware.Profiles() {
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if got := len(img.ELF.FuncSymbols()); got != spec.Functions {
			t.Errorf("%s: %d function symbols, want %d (Table I)", spec.Name, got, spec.Functions)
		}
		if got := len(img.Flash); got != spec.TargetSize {
			t.Errorf("%s: image %d bytes, want %d (Table III)", spec.Name, got, spec.TargetSize)
		}
	}
}

func TestTableIIIStockSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generation")
	}
	spec := firmware.Arduplane()
	img, err := firmware.Generate(spec, firmware.ModeStock)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(img.Flash); got != spec.TargetSizeStock {
		t.Errorf("stock image %d bytes, want %d", got, spec.TargetSizeStock)
	}
	if img.SharedPrologues == 0 {
		t.Error("stock build used no shared call prologues")
	}
	if img.RelaxedCalls == 0 {
		t.Error("stock build relaxed no calls")
	}
	if got := len(img.ELF.FuncSymbols()); got != spec.Functions {
		t.Errorf("stock build has %d function symbols, want %d", got, spec.Functions)
	}
}

// The stock-mode test app must also boot and fly.
func TestStockModeBoots(t *testing.T) {
	spec := firmware.TestApp()
	img, err := firmware.Generate(spec, firmware.ModeStock)
	if err != nil {
		t.Fatal(err)
	}
	tb := boot(t, img)
	if f := tb.RunCycles(500000); f != nil {
		t.Fatalf("stock firmware faulted: %v", f)
	}
	if len(tb.tx) < firmware.PulseSize {
		t.Error("no telemetry from stock firmware")
	}
}

// Scheduler dispatch must exercise the data-section function-pointer
// tables without faulting over many iterations (icall through stubs and
// direct pointers).
func TestSchedulerDispatchAllTasks(t *testing.T) {
	img := genTest(t)
	tb := boot(t, img)
	if f := tb.RunCycles(3000000); f != nil {
		t.Fatalf("fault while rotating scheduler tasks: %v", f)
	}
	idx := tb.CPU.Data[firmware.AddrSchedIdx]
	if idx < 16 {
		t.Errorf("scheduler index only reached %d after 3M cycles", idx)
	}
}

func TestPointerGroundTruthConsistent(t *testing.T) {
	img := genTest(t)
	if len(img.PtrFlashOffsets) != len(img.PtrDataAddrs) {
		t.Fatal("pointer metadata length mismatch")
	}
	want := img.Layout.SchedTableLen + img.Layout.DirectTableLen
	if len(img.PtrFlashOffsets) != want {
		t.Errorf("pointer count = %d, want %d", len(img.PtrFlashOffsets), want)
	}
	// Every pointer word must target a valid flash word address.
	for i, off := range img.PtrFlashOffsets {
		w := uint32(img.Flash[off]) | uint32(img.Flash[off+1])<<8
		if int(w)*2 >= len(img.Flash) {
			t.Errorf("pointer %d targets word 0x%X beyond image", i, w)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
