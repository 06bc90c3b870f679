package gcs_test

import (
	"bytes"
	"testing"

	"mavr/internal/gcs"
	"mavr/internal/mavlink"
)

func TestSplitterSegmentsMixedStream(t *testing.T) {
	var s gcs.StreamSplitter
	p := pulse(7)
	hb := &mavlink.Heartbeat{Type: 1, Autopilot: 3, SystemStatus: mavlink.StateActive, MavlinkVersion: 3}
	hbFrame := frameWire(mavlink.MsgIDHeartbeat, hb.Marshal())
	stream := append(append(append([]byte{}, p...), hbFrame...), p...)
	stream = append(stream, 0xEE) // stray byte
	stream = append(stream, p[:2]...)

	// Feed one byte at a time: records must come out whole regardless
	// of chunking. A record is a view valid until the next Feed, so the
	// ones kept are copies.
	var records [][]byte
	for _, b := range stream {
		for _, r := range s.Feed([]byte{b}) {
			records = append(records, append([]byte(nil), r...))
		}
	}
	if len(records) != 4 {
		t.Fatalf("got %d records, want 4 (pulse, frame, pulse, garbage)", len(records))
	}
	if !bytes.Equal(records[0], p) || !bytes.Equal(records[2], p) {
		t.Error("pulse records mangled")
	}
	if !bytes.Equal(records[1], hbFrame) {
		t.Error("frame record mangled")
	}
	if !bytes.Equal(records[3], []byte{0xEE}) {
		t.Error("garbage byte not isolated")
	}
	// Completing the held partial pulse releases it.
	got := s.Feed(p[2:])
	if len(got) != 1 || !bytes.Equal(got[0], p) {
		t.Errorf("partial pulse not completed: %x", got)
	}

	// Fed whole, the same stream yields the same records, as views
	// that end where they do: appending to one leaves the next intact.
	var whole gcs.StreamSplitter
	views := whole.Feed(stream)
	if len(views) != 4 {
		t.Fatalf("whole stream: %d records, want 4", len(views))
	}
	for i, v := range views {
		if !bytes.Equal(v, records[i]) {
			t.Errorf("whole stream record %d = %x, want %x", i, v, records[i])
		}
	}
	_ = append(views[0], 0xFF)
	if !bytes.Equal(views[1], hbFrame) {
		t.Error("appending to a record overwrote the one after it")
	}
}
