package mavlink_test

import (
	"reflect"
	"testing"

	"mavr/internal/mavlink"
)

// Each of the four messages the vehicle, its ground stations and the
// attacker exchange round-trips through its payload codec and through
// a full frame with the schema length check enabled.
func TestCommonMessagesRoundTrip(t *testing.T) {
	type codec struct {
		id        byte
		unmarshal func([]byte) (any, error)
		want      any
	}
	cases := []codec{
		{
			id:        mavlink.MsgIDHeartbeat,
			want:      &mavlink.Heartbeat{CustomMode: 0x01020304, Type: 1, Autopilot: 3, BaseMode: 0x81, SystemStatus: mavlink.StateActive, MavlinkVersion: 3},
			unmarshal: func(p []byte) (any, error) { return mavlink.UnmarshalHeartbeat(p) },
		},
		{
			id: mavlink.MsgIDRawIMU,
			want: &mavlink.RawIMU{
				TimeUsec: 0x1122334455667788, Xacc: 1, Yacc: -2, Zacc: 1000,
				Xgyro: 5, Ygyro: -6, Zgyro: 7, Xmag: 120, Ymag: -340, Zmag: 560,
			},
			unmarshal: func(p []byte) (any, error) { return mavlink.UnmarshalRawIMU(p) },
		},
		{
			id: mavlink.MsgIDParamValue,
			want: &mavlink.ParamValue{
				ParamValue: 4.5, ParamCount: 500, ParamIndex: 12,
				ParamID: "RATE_RLL_P", ParamType: 9,
			},
			unmarshal: func(p []byte) (any, error) { return mavlink.UnmarshalParamValue(p) },
		},
		{
			id: mavlink.MsgIDParamSet,
			want: &mavlink.ParamSet{
				ParamValue: -1.25, TargetSystem: 1, TargetComponent: 1,
				ParamID: "SIXTEEN_BYTES_ID", ParamType: 9,
			},
			unmarshal: func(p []byte) (any, error) { return mavlink.UnmarshalParamSet(p) },
		},
	}

	for _, tc := range cases {
		m, ok := tc.want.(interface{ Marshal() []byte })
		if !ok {
			t.Fatalf("message %d lacks Marshal", tc.id)
		}
		payload := m.Marshal()
		if want, _ := mavlink.ExpectedLen(tc.id); len(payload) != want {
			t.Errorf("id %d: payload %d bytes, schema says %d", tc.id, len(payload), want)
		}
		got, err := tc.unmarshal(payload)
		if err != nil {
			t.Fatalf("id %d: %v", tc.id, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("id %d round trip:\ngot  %+v\nwant %+v", tc.id, got, tc.want)
		}
		// Through a full strict frame.
		fr := &mavlink.Frame{MsgID: tc.id, SysID: 1, CompID: 1, Payload: payload}
		wire, err := fr.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		var p mavlink.Parser
		p.StrictLength = true
		frames := p.FeedBytes(wire)
		if len(frames) != 1 {
			t.Fatalf("id %d: strict parser rejected the frame", tc.id)
		}
	}
}

func TestCRCExtraCoversAllSchemas(t *testing.T) {
	for _, id := range []byte{
		mavlink.MsgIDHeartbeat, mavlink.MsgIDSysStatus, mavlink.MsgIDParamRequestRead,
		mavlink.MsgIDParamRequestList, mavlink.MsgIDParamValue, mavlink.MsgIDParamSet,
		mavlink.MsgIDGPSRawInt, mavlink.MsgIDRawIMU, mavlink.MsgIDAttitude,
		mavlink.MsgIDGlobalPositionInt, mavlink.MsgIDRCChannelsRaw, mavlink.MsgIDServoOutputRaw,
		mavlink.MsgIDMissionItem, mavlink.MsgIDMissionRequest, mavlink.MsgIDMissionCount,
		mavlink.MsgIDMissionAck, mavlink.MsgIDVFRHud, mavlink.MsgIDCommandLong,
		mavlink.MsgIDCommandAck, mavlink.MsgIDStatusText,
	} {
		if _, ok := mavlink.CRCExtra(id); !ok {
			t.Errorf("no CRC_EXTRA for message id %d", id)
		}
		if _, ok := mavlink.ExpectedLen(id); !ok {
			t.Errorf("no schema length for message id %d", id)
		}
	}
}
