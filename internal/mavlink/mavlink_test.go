package mavlink_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"mavr/internal/mavlink"
)

func TestCRCKnownVector(t *testing.T) {
	// MAVLink's checksum is CRC-16/MCRF4XX (poly 0x1021 reflected, init
	// 0xFFFF, no final xor); its standard check value over "123456789"
	// is 0x6F91.
	if got := mavlink.CRC([]byte("123456789")); got != 0x6F91 {
		t.Errorf("CRC = 0x%04X, want 0x6F91", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	hb := &mavlink.Heartbeat{Type: 1, Autopilot: 3, SystemStatus: mavlink.StateActive, MavlinkVersion: 3}
	f := &mavlink.Frame{Seq: 7, SysID: 1, CompID: 1, MsgID: mavlink.MsgIDHeartbeat, Payload: hb.Marshal()}
	wire, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if wire[0] != mavlink.Magic {
		t.Error("frame does not start with magic")
	}
	if len(wire) != 6+9+2 {
		t.Errorf("wire length = %d, want 17 (paper: minimum packet length)", len(wire))
	}
	p := mavlink.Parser{StrictLength: true}
	frames := p.FeedBytes(wire)
	if len(frames) != 1 {
		t.Fatalf("parsed %d frames, want 1", len(frames))
	}
	if got := frames[0]; got.Seq != 7 || got.SysID != 1 || got.CompID != 1 || got.Checksum != f.Checksum {
		t.Errorf("header mismatch: %+v vs %+v", got, f)
	}
	hb2, err := mavlink.UnmarshalHeartbeat(frames[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if *hb2 != *hb {
		t.Errorf("heartbeat mismatch: %+v vs %+v", hb2, hb)
	}
}

func TestMarshalRefusesOversizePayload(t *testing.T) {
	f := &mavlink.Frame{MsgID: mavlink.MsgIDParamSet, Payload: make([]byte, 300)}
	if _, err := f.Marshal(); !errors.Is(err, mavlink.ErrTooLong) {
		t.Errorf("want ErrTooLong, got %v", err)
	}
	// The attacker's path must still work.
	wire := f.MarshalOversize()
	if len(wire) != 6+300+2 {
		t.Errorf("oversize wire = %d bytes, want 308", len(wire))
	}
}

func TestParserReassemblesStream(t *testing.T) {
	var wire []byte
	for i := 0; i < 5; i++ {
		f := &mavlink.Frame{
			Seq:     byte(i),
			MsgID:   mavlink.MsgIDHeartbeat,
			Payload: (&mavlink.Heartbeat{CustomMode: uint32(i)}).Marshal(),
		}
		w, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, w...)
	}
	// Garbage between frames must be skipped.
	wire = append([]byte{1, 2, 3}, wire...)
	var p mavlink.Parser
	p.StrictLength = true
	frames := p.FeedBytes(wire)
	if len(frames) != 5 {
		t.Fatalf("parsed %d frames, want 5", len(frames))
	}
	for i, f := range frames {
		if f.Seq != byte(i) {
			t.Errorf("frame %d has seq %d", i, f.Seq)
		}
	}
	if p.Stats().Resyncs != 3 {
		t.Errorf("resyncs = %d, want 3", p.Stats().Resyncs)
	}
}

// The injected vulnerability: with the length check disabled, an
// over-long PARAM_SET passes the parser; with it enabled, it is dropped.
func TestVulnerableVsStrictLengthCheck(t *testing.T) {
	attack := &mavlink.Frame{MsgID: mavlink.MsgIDParamSet, Payload: make([]byte, 96)}
	wire, err := attack.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	var strict mavlink.Parser
	strict.StrictLength = true
	if got := strict.FeedBytes(wire); len(got) != 0 {
		t.Error("strict parser accepted over-long PARAM_SET")
	}
	if strict.Stats().LengthDrops != 1 {
		t.Errorf("length drops = %d, want 1", strict.Stats().LengthDrops)
	}

	var vuln mavlink.Parser // StrictLength false: the paper's disabled check
	got := vuln.FeedBytes(wire)
	if len(got) != 1 {
		t.Fatal("vulnerable parser did not accept over-long PARAM_SET")
	}
	if len(got[0].Payload) != 96 {
		t.Errorf("payload length = %d, want 96", len(got[0].Payload))
	}
}

func TestParserCRCErrorCounting(t *testing.T) {
	f := &mavlink.Frame{MsgID: mavlink.MsgIDHeartbeat, Payload: (&mavlink.Heartbeat{}).Marshal()}
	wire, _ := f.Marshal()
	wire[10] ^= 0x01
	var p mavlink.Parser
	if got := p.FeedBytes(wire); len(got) != 0 {
		t.Error("parser accepted corrupt frame")
	}
	if p.Stats().CRCErrors != 1 {
		t.Errorf("crc errors = %d, want 1", p.Stats().CRCErrors)
	}
}

func TestParamSetRoundTrip(t *testing.T) {
	ps := &mavlink.ParamSet{ParamValue: 42.5, TargetSystem: 1, TargetComponent: 1, ParamID: "RATE_RLL_P", ParamType: 9}
	got, err := mavlink.UnmarshalParamSet(ps.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *ps {
		t.Errorf("param_set mismatch: %+v vs %+v", got, ps)
	}
}

func TestPayloadUnmarshalRejectsShort(t *testing.T) {
	if _, err := mavlink.UnmarshalHeartbeat(make([]byte, 3)); err == nil {
		t.Error("heartbeat accepted short payload")
	}
	if _, err := mavlink.UnmarshalRawIMU(make([]byte, 25)); err == nil {
		t.Error("raw_imu accepted short payload")
	}
	if _, err := mavlink.UnmarshalParamValue(make([]byte, 24)); err == nil {
		t.Error("param_value accepted short payload")
	}
	if _, err := mavlink.UnmarshalParamSet(make([]byte, 10)); err == nil {
		t.Error("param_set accepted short payload")
	}
}

// Property: any frame marshalled with a known message id parses back
// byte-identical through the streaming parser (lenient mode).
func TestFrameRoundTripProperty(t *testing.T) {
	ids := []byte{mavlink.MsgIDHeartbeat, mavlink.MsgIDAttitude, mavlink.MsgIDParamSet, mavlink.MsgIDStatusText}
	f := func(seq, sys, comp byte, idIdx uint8, payload []byte) bool {
		if len(payload) > mavlink.MaxPayload {
			payload = payload[:mavlink.MaxPayload]
		}
		fr := &mavlink.Frame{
			Seq: seq, SysID: sys, CompID: comp,
			MsgID:   ids[int(idIdx)%len(ids)],
			Payload: payload,
		}
		wire, err := fr.Marshal()
		if err != nil {
			return false
		}
		var p mavlink.Parser
		frames := p.FeedBytes(wire)
		if len(frames) != 1 {
			return false
		}
		got := frames[0]
		return got.Seq == seq && got.SysID == sys && got.CompID == comp &&
			got.MsgID == fr.MsgID && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// Property: flipping any single byte of a marshalled frame never yields
// a different accepted frame (either rejected, or resynced away).
func TestSingleByteCorruptionDetected(t *testing.T) {
	hb := &mavlink.Heartbeat{Type: 2, Autopilot: 3, SystemStatus: 4}
	fr := &mavlink.Frame{Seq: 9, SysID: 1, CompID: 1, MsgID: mavlink.MsgIDHeartbeat, Payload: hb.Marshal()}
	wire, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(wire); i++ { // byte 0 (magic) only causes resync
		mut := append([]byte(nil), wire...)
		mut[i] ^= 0xA5
		var p mavlink.Parser
		p.StrictLength = true
		for _, got := range p.FeedBytes(mut) {
			if got != nil {
				t.Errorf("corruption at byte %d accepted", i)
			}
		}
	}
}

func TestHeaderDescriptionMentionsAllFields(t *testing.T) {
	d := mavlink.HeaderDescription()
	for _, want := range []string{"magic", "Length", "sequence", "Checksum", "255"} {
		if !bytes.Contains([]byte(d), []byte(want)) {
			t.Errorf("header description missing %q", want)
		}
	}
}
