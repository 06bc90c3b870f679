package firmware_test

import (
	"reflect"
	"strings"
	"testing"

	"mavr/internal/firmware"
)

// Profile resolves exactly the four built-in names, and an unknown name
// is an error that names it.
func TestProfileLookup(t *testing.T) {
	for _, tc := range []struct {
		name string
		want firmware.AppSpec
	}{
		{"testapp", firmware.TestApp()},
		{"arduplane", firmware.Arduplane()},
		{"arducopter", firmware.Arducopter()},
		{"ardurover", firmware.Ardurover()},
	} {
		got, err := firmware.Profile(tc.name)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Profile(%q) = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
	if got, err := firmware.Profile("hovercraft"); err == nil || !strings.Contains(err.Error(), `"hovercraft"`) {
		t.Errorf("Profile(hovercraft) = %+v, %v; want an error naming the profile", got, err)
	}
}
