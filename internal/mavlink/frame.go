package mavlink

import "errors"

// Magic is the MAVLink v1.0 start-of-frame marker (the paper's "state
// magic number").
const Magic = 0xFE

// MaxPayload is the largest payload a conformant v1.0 frame carries.
const MaxPayload = 255

// Message ids of the MAVLink v1 common set covered by the schema
// tables below. The vehicle, its ground stations and the attacker
// exchange four of them: HEARTBEAT, RAW_IMU and PARAM_VALUE down,
// PARAM_SET up. The Parser validates a frame of any of the twenty.
const (
	MsgIDHeartbeat         = 0
	MsgIDSysStatus         = 1
	MsgIDParamRequestRead  = 20
	MsgIDParamRequestList  = 21
	MsgIDParamValue        = 22
	MsgIDParamSet          = 23
	MsgIDGPSRawInt         = 24
	MsgIDRawIMU            = 27
	MsgIDAttitude          = 30
	MsgIDGlobalPositionInt = 33
	MsgIDRCChannelsRaw     = 35
	MsgIDServoOutputRaw    = 36
	MsgIDMissionItem       = 39
	MsgIDMissionRequest    = 40
	MsgIDMissionCount      = 44
	MsgIDMissionAck        = 47
	MsgIDVFRHud            = 74
	MsgIDCommandLong       = 76
	MsgIDCommandAck        = 77
	MsgIDStatusText        = 253
)

// crcExtra is the per-message CRC seed byte from the MAVLink common
// message definitions; it binds the checksum to the message schema.
var crcExtra = map[byte]byte{
	MsgIDHeartbeat:         50,
	MsgIDSysStatus:         124,
	MsgIDParamRequestRead:  214,
	MsgIDParamRequestList:  159,
	MsgIDParamValue:        220,
	MsgIDParamSet:          168,
	MsgIDGPSRawInt:         24,
	MsgIDRawIMU:            144,
	MsgIDAttitude:          39,
	MsgIDGlobalPositionInt: 104,
	MsgIDRCChannelsRaw:     244,
	MsgIDServoOutputRaw:    222,
	MsgIDMissionItem:       254,
	MsgIDMissionRequest:    230,
	MsgIDMissionCount:      221,
	MsgIDMissionAck:        153,
	MsgIDVFRHud:            20,
	MsgIDCommandLong:       152,
	MsgIDCommandAck:        143,
	MsgIDStatusText:        83,
}

// expectedLen is the schema payload length per message id; a conformant
// decoder rejects frames whose length field disagrees. Disabling this
// check is exactly the vulnerability the paper injects.
var expectedLen = map[byte]int{
	MsgIDHeartbeat:         9,
	MsgIDSysStatus:         31,
	MsgIDParamRequestRead:  20,
	MsgIDParamRequestList:  2,
	MsgIDParamValue:        25,
	MsgIDParamSet:          23,
	MsgIDGPSRawInt:         30,
	MsgIDRawIMU:            26,
	MsgIDAttitude:          28,
	MsgIDGlobalPositionInt: 28,
	MsgIDRCChannelsRaw:     22,
	MsgIDServoOutputRaw:    21,
	MsgIDMissionItem:       37,
	MsgIDMissionRequest:    4,
	MsgIDMissionCount:      4,
	MsgIDMissionAck:        3,
	MsgIDVFRHud:            20,
	MsgIDCommandLong:       33,
	MsgIDCommandAck:        3,
	MsgIDStatusText:        51,
}

// CRCExtra returns the CRC seed byte for a message id.
func CRCExtra(msgID byte) (byte, bool) {
	b, ok := crcExtra[msgID]
	return b, ok
}

// ExpectedLen returns the schema payload length for a message id.
func ExpectedLen(msgID byte) (int, bool) {
	n, ok := expectedLen[msgID]
	return n, ok
}

// Frame is one MAVLink v1.0 packet.
type Frame struct {
	Len      byte // payload length as declared on the wire
	Seq      byte // packet sequence number
	SysID    byte // id of message sender
	CompID   byte // id of message sender component
	MsgID    byte // id of message in payload
	Payload  []byte
	Checksum uint16
}

// ErrTooLong is Marshal's refusal of a payload over MaxPayload bytes.
var ErrTooLong = errors.New("mavlink: payload exceeds 255 bytes")

// Marshal serializes the frame, computing the checksum. It refuses
// payloads over 255 bytes; a malicious ground station uses
// MarshalOversize instead.
func (f *Frame) Marshal() ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, ErrTooLong
	}
	return f.MarshalOversize(), nil
}

// MarshalOversize serializes a frame whose payload may exceed 255
// bytes. The wire length byte wraps modulo 256, which is what lets the
// paper's attack string slip an arbitrarily long byte stream past the
// vulnerable (length-check-disabled) decoder while still carrying a
// valid checksum over the declared prefix.
func (f *Frame) MarshalOversize() []byte {
	out := make([]byte, 0, 8+len(f.Payload))
	out = append(out, Magic, byte(len(f.Payload)), f.Seq, f.SysID, f.CompID, f.MsgID)
	out = append(out, f.Payload...)
	crc := CRC(out[1:]) // magic byte excluded per spec
	if extra, ok := crcExtra[f.MsgID]; ok {
		crc = CRCAccumulate(extra, crc)
	}
	f.Checksum = crc
	f.Len = byte(len(f.Payload))
	return append(out, byte(crc), byte(crc>>8))
}

// HeaderDescription returns the Fig. 2 packet-structure table as text.
func HeaderDescription() string {
	return `MAVLink v1.0 packet structure (paper Fig. 2):
  State magic number            1 byte  (0xFE)
  Length                        1 byte
  Packet sequence #             1 byte
  ID of message sender          1 byte
  ID of message sender component 1 byte
  ID of message in payload      1 byte
  Message                       <=255 bytes
  Checksum (X.25 + CRC_EXTRA)   2 bytes
`
}
