package scengen

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"mavr/internal/scenario"
)

// FuzzSpecRoundTrip: every generated Spec must survive the JSON round
// trip byte-identically — a Spec written to disk by mavr-scengen gen
// and read back by mavr-scengen run is the same experiment, and the
// generator itself stays deterministic under arbitrary seeds. So must a
// Spec using what the generator never draws: a patched build and both
// boot-gadget kinds.
func FuzzSpecRoundTrip(f *testing.F) {
	requireRoundTrip(f, scenario.Spec{
		Name: "patched-boot", Board: scenario.BoardMAVR, Patched: true, Seed: 5, Run: time.Second,
		Injections: []scenario.Injection{
			{At: 100 * time.Millisecond, Kind: scenario.InjectBootV1, Value: 0x7F},
			{At: 300 * time.Millisecond, Kind: scenario.InjectBootEEPROM, Value: 0x7F},
		},
	})
	f.Add(int64(0))
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Add(int64(1) << 62)
	f.Fuzz(func(t *testing.T, seed int64) {
		b1 := requireRoundTrip(t, Generate(seed))
		// And the generator is a pure function of the seed.
		again, err := json.Marshal(Generate(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, again) {
			t.Fatalf("Generate(%d) not deterministic", seed)
		}
	})
}

// requireRoundTrip fails unless spec decodes from its JSON to an equal
// Spec that re-encodes to the same bytes, which it returns.
func requireRoundTrip(t testing.TB, spec scenario.Spec) []byte {
	t.Helper()
	b1, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back scenario.Spec
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatalf("spec does not parse: %v\n%s", err, b1)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) || !reflect.DeepEqual(back, spec) {
		t.Fatalf("round trip changed the spec:\n%s\n%s", b1, b2)
	}
	return b1
}
