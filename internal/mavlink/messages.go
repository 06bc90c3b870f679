package mavlink

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Heartbeat is the MAVLink HEARTBEAT message (id 0), broadcast by the
// autopilot about once per second. The ground station's liveness
// monitoring — what a stealthy attack must not disturb — is built on it.
type Heartbeat struct {
	CustomMode     uint32
	Type           byte
	Autopilot      byte
	BaseMode       byte
	SystemStatus   byte
	MavlinkVersion byte
}

// StateActive is the MAV_STATE a healthy vehicle reports.
const StateActive = 4

// Marshal encodes the heartbeat payload.
func (h *Heartbeat) Marshal() []byte {
	out := make([]byte, 9)
	binary.LittleEndian.PutUint32(out, h.CustomMode)
	out[4] = h.Type
	out[5] = h.Autopilot
	out[6] = h.BaseMode
	out[7] = h.SystemStatus
	out[8] = h.MavlinkVersion
	return out
}

// UnmarshalHeartbeat decodes a HEARTBEAT payload.
func UnmarshalHeartbeat(p []byte) (*Heartbeat, error) {
	if err := checkLen("heartbeat", p, 9); err != nil {
		return nil, err
	}
	return &Heartbeat{
		CustomMode:     binary.LittleEndian.Uint32(p),
		Type:           p[4],
		Autopilot:      p[5],
		BaseMode:       p[6],
		SystemStatus:   p[7],
		MavlinkVersion: p[8],
	}, nil
}

// RawIMU is RAW_IMU (id 27): unscaled 9-DOF sensor values — the
// gyroscope stream the paper's attack V1 corrupts.
type RawIMU struct {
	TimeUsec            uint64
	Xacc, Yacc, Zacc    int16
	Xgyro, Ygyro, Zgyro int16
	Xmag, Ymag, Zmag    int16
}

// Marshal encodes the RAW_IMU payload.
func (m *RawIMU) Marshal() []byte {
	out := make([]byte, 26)
	binary.LittleEndian.PutUint64(out, m.TimeUsec)
	for i, v := range []int16{m.Xacc, m.Yacc, m.Zacc, m.Xgyro, m.Ygyro, m.Zgyro, m.Xmag, m.Ymag, m.Zmag} {
		binary.LittleEndian.PutUint16(out[8+2*i:], uint16(v))
	}
	return out
}

// UnmarshalRawIMU decodes a RAW_IMU payload.
func UnmarshalRawIMU(p []byte) (*RawIMU, error) {
	if err := checkLen("raw_imu", p, 26); err != nil {
		return nil, err
	}
	v := func(i int) int16 { return int16(binary.LittleEndian.Uint16(p[8+2*i:])) }
	return &RawIMU{
		TimeUsec: binary.LittleEndian.Uint64(p),
		Xacc:     v(0), Yacc: v(1), Zacc: v(2),
		Xgyro: v(3), Ygyro: v(4), Zgyro: v(5),
		Xmag: v(6), Ymag: v(7), Zmag: v(8),
	}, nil
}

// ParamValue is PARAM_VALUE (id 22): the autopilot's reply to parameter
// reads and writes.
type ParamValue struct {
	ParamValue float32
	ParamCount uint16
	ParamIndex uint16
	ParamID    string // up to 16 bytes
	ParamType  byte
}

// Marshal encodes the PARAM_VALUE payload.
func (m *ParamValue) Marshal() []byte {
	out := make([]byte, 25)
	binary.LittleEndian.PutUint32(out, math.Float32bits(m.ParamValue))
	binary.LittleEndian.PutUint16(out[4:], m.ParamCount)
	binary.LittleEndian.PutUint16(out[6:], m.ParamIndex)
	copy(out[8:24], m.ParamID)
	out[24] = m.ParamType
	return out
}

// UnmarshalParamValue decodes a PARAM_VALUE payload.
func UnmarshalParamValue(p []byte) (*ParamValue, error) {
	if err := checkLen("param_value", p, 25); err != nil {
		return nil, err
	}
	return &ParamValue{
		ParamValue: math.Float32frombits(binary.LittleEndian.Uint32(p)),
		ParamCount: binary.LittleEndian.Uint16(p[4:]),
		ParamIndex: binary.LittleEndian.Uint16(p[6:]),
		ParamID:    paramID(p[8:24]),
		ParamType:  p[24],
	}, nil
}

// ParamSet is the PARAM_SET message (id 23): the ground station writes
// one named autopilot parameter. Its 16-byte param_id field is the
// fixed-size buffer the paper's injected vulnerability overflows.
type ParamSet struct {
	ParamValue      float32
	TargetSystem    byte
	TargetComponent byte
	ParamID         string // up to 16 bytes on the wire
	ParamType       byte
}

// Marshal encodes the PARAM_SET payload.
func (ps *ParamSet) Marshal() []byte {
	out := make([]byte, 23)
	binary.LittleEndian.PutUint32(out, math.Float32bits(ps.ParamValue))
	out[4] = ps.TargetSystem
	out[5] = ps.TargetComponent
	copy(out[6:22], ps.ParamID)
	out[22] = ps.ParamType
	return out
}

// UnmarshalParamSet decodes a PARAM_SET payload.
func UnmarshalParamSet(p []byte) (*ParamSet, error) {
	if err := checkLen("param_set", p, 23); err != nil {
		return nil, err
	}
	return &ParamSet{
		ParamValue:      math.Float32frombits(binary.LittleEndian.Uint32(p)),
		TargetSystem:    p[4],
		TargetComponent: p[5],
		ParamID:         paramID(p[6:22]),
		ParamType:       p[22],
	}, nil
}

func checkLen(name string, p []byte, want int) error {
	if len(p) < want {
		return fmt.Errorf("mavlink: %s payload %d bytes, want %d", name, len(p), want)
	}
	return nil
}

// paramID reads a 16-byte param_id field, NUL-terminated unless full.
func paramID(field []byte) string {
	n := 0
	for n < len(field) && field[n] != 0 {
		n++
	}
	return string(field[:n])
}
