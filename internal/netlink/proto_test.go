package netlink

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Type: PacketData, SysID: 42, Seq: 0xDEADBEEF, SimTime: 1500 * time.Millisecond}
	payload := []byte{1, 2, 3, 4}
	pkt := Encode(h, payload)
	if len(pkt) != HeaderSize+len(payload) {
		t.Fatalf("datagram length %d", len(pkt))
	}
	got, gotPayload, err := Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header round trip: %+v != %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload round trip: %x", gotPayload)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, _, err := Decode([]byte{magic0, magic1}); !errors.Is(err, ErrShortDatagram) {
		t.Errorf("short datagram: %v", err)
	}
	pkt := Encode(Header{Type: PacketHello, SysID: 1}, nil)
	pkt[0] = 'X'
	if _, _, err := Decode(pkt); !errors.Is(err, ErrBadProtoMagic) {
		t.Errorf("bad magic: %v", err)
	}
	pkt[0] = magic0
	pkt[2] = 99
	if _, _, err := Decode(pkt); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
}

// Any single-byte flip anywhere in a datagram — header or payload —
// must fail checksum verification: corruption becomes whole-datagram
// loss, never a garbled record reaching the monitor.
func TestDecodeRejectsCorruption(t *testing.T) {
	pkt := Encode(Header{Type: PacketData, SysID: 3, Seq: 9, SimTime: time.Second},
		[]byte{0xA5, 7, 10, 3, 0xFE, 0x21})
	for i := 3; i < len(pkt); i++ {
		bad := append([]byte(nil), pkt...)
		bad[i] ^= 0x40
		if _, _, err := Decode(bad); err == nil {
			t.Errorf("flip at offset %d went undetected", i)
		}
	}
	if _, _, err := Decode(pkt); err != nil {
		t.Fatalf("pristine datagram rejected: %v", err)
	}
}

func TestPackRecordsRespectsLimit(t *testing.T) {
	records := [][]byte{
		make([]byte, 40), make([]byte, 40), make([]byte, 40),
		make([]byte, 200), // oversize record still ships alone
	}
	payloads := packRecords(records, 100)
	if len(payloads) != 3 {
		t.Fatalf("got %d payloads, want 3", len(payloads))
	}
	if len(payloads[0]) != 80 || len(payloads[1]) != 40 || len(payloads[2]) != 200 {
		t.Errorf("payload sizes: %d %d %d", len(payloads[0]), len(payloads[1]), len(payloads[2]))
	}
}
