package metrics

import (
	"reflect"
	"testing"
	"time"
)

func TestLines(t *testing.T) {
	type counters struct {
		Frames   uint64        `metric:"frames"`
		Drift    int           `metric:"drift"`
		Gyro     byte          `metric:"gyro"`
		Up       bool          `metric:"up"`
		Down     bool          `metric:"down"`
		Uptime   time.Duration `metric:"uptime_ms"`
		Internal uint64
	}
	for _, tc := range []struct {
		name string
		v    any
		want []string
	}{
		{"every kind", counters{Frames: 1<<64 - 1, Drift: -7, Gyro: 255, Up: true, Uptime: 2*time.Second + 999*time.Microsecond, Internal: 9},
			[]string{"p.frames 18446744073709551615", "p.drift -7", "p.gyro 255", "p.up 1", "p.down 0", "p.uptime_ms 2000"}},
		{"zero value", counters{},
			[]string{"p.frames 0", "p.drift 0", "p.gyro 0", "p.up 0", "p.down 0", "p.uptime_ms 0"}},
		{"untagged only", struct{ A, B uint64 }{1, 2}, nil},
		{"narrow kinds", struct {
			A int8   `metric:"a"`
			B uint16 `metric:"b"`
			C int64  `metric:"c"`
			D uint32 `metric:"d"`
		}{-128, 65535, -1 << 63, 7}, []string{"p.a -128", "p.b 65535", "p.c -9223372036854775808", "p.d 7"}},
	} {
		if got := Lines("p", tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Lines = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// Text sorts by the whole line, so a name that is a prefix of another
// sorts first and dotted prefixes group.
func TestText(t *testing.T) {
	got := Text([]string{"vehicle.2.ticks 4", "fleet.vehicles 2", "vehicle.10.ticks 1", "fleet.uptime_ms 3", "fleet.uptime 5"})
	want := "fleet.uptime 5\nfleet.uptime_ms 3\nfleet.vehicles 2\nvehicle.10.ticks 1\nvehicle.2.ticks 4\n"
	if got != want {
		t.Errorf("Text = %q, want %q", got, want)
	}
}

func TestLinesRejectsUnrenderableField(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a tagged string field rendered")
		}
	}()
	Lines("p", struct {
		S string `metric:"s"`
	}{"x"})
}
