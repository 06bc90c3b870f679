package mavlink_test

import (
	"testing"

	"mavr/internal/mavlink"
)

func testFrames() []*mavlink.Frame {
	hb := &mavlink.Heartbeat{Type: 1, Autopilot: 3, SystemStatus: mavlink.StateActive, MavlinkVersion: 3}
	var frames []*mavlink.Frame
	for i := 0; i < 5; i++ {
		frames = append(frames, &mavlink.Frame{
			MsgID:   mavlink.MsgIDHeartbeat,
			SysID:   1,
			CompID:  1,
			Seq:     byte(i),
			Payload: hb.Marshal(),
		})
	}
	return frames
}

// encoded keeps BenchmarkFrameEncode's result live.
var encoded []byte

// BenchmarkFrameEncode measures the sender path every uplink frame
// takes: MarshalOversize of a heartbeat-sized frame.
func BenchmarkFrameEncode(b *testing.B) {
	f := testFrames()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encoded = f.MarshalOversize()
	}
	b.SetBytes(int64(len(encoded)))
}

// BenchmarkFrameParse measures the receiver path: the incremental
// byte-stream parser over a batch of conformant frames.
func BenchmarkFrameParse(b *testing.B) {
	var wire []byte
	for _, f := range testFrames() {
		wire = append(wire, f.MarshalOversize()...)
	}
	want := len(testFrames())
	p := &mavlink.Parser{StrictLength: true}
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.FeedBytes(wire); len(got) != want {
			b.Fatalf("parsed %d frames, want %d", len(got), want)
		}
	}
}
