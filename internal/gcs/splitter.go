package gcs

import (
	"mavr/internal/firmware"
	"mavr/internal/mavlink"
)

// StreamSplitter segments the vehicle's downlink byte stream into
// self-contained records: telemetry pulses ([firmware.PulseMagic, seq,
// gyro, heading]) and complete MAVLink frames. It is the one framing
// of the downlink: the Monitor reads records through it, and the
// datagram transports (internal/netlink, internal/scenario) pack
// datagrams on its record boundaries. That is what makes datagram loss
// benign — a dropped datagram removes whole records, never a record
// prefix, so loss shows up as pulse sequence gaps instead of garbage.
//
// Bytes that start neither a pulse nor a frame become single-byte
// records: a compromised vehicle spraying garbage still reaches the
// monitor (and trips its garbage counter) rather than being laundered
// by the transport.
type StreamSplitter struct {
	buf  []byte
	off  int // end of the last complete record in buf
	recs [][]byte
}

// Feed appends data to the pending stream and returns its complete
// records in order. A trailing partial record is held until the next
// Feed. Each record is a view into the splitter's buffer, valid only
// until the next Feed: callers that keep a record must copy it.
func (s *StreamSplitter) Feed(data []byte) [][]byte {
	n := copy(s.buf, s.buf[s.off:])
	s.buf = append(s.buf[:n], data...)
	s.recs = s.recs[:0]
	off := 0
	for off < len(s.buf) {
		n := 1 // a byte that starts neither record is one of its own
		switch s.buf[off] {
		case firmware.PulseMagic:
			n = firmware.PulseSize
		case mavlink.Magic:
			n = 2 // the length byte decides the rest
			if off+1 < len(s.buf) {
				n = 6 + int(s.buf[off+1]) + 2
			}
		}
		if off+n > len(s.buf) {
			break // incomplete record, wait for more bytes
		}
		s.recs = append(s.recs, s.buf[off:off+n:off+n])
		off += n
	}
	s.off = off
	return s.recs
}
