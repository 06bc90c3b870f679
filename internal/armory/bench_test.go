package armory

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"mavr/internal/firmware"
	"mavr/internal/staticverify"
)

func benchPlaneELF(b *testing.B) []byte {
	b.Helper()
	img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := img.ELF.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// BenchmarkArmoryRandomizeCold is the full pipeline with an empty cache
// each iteration: parse + preprocess + CFG recovery + permute + patch +
// verify + sign for one ArduPlane-scale image.
func BenchmarkArmoryRandomizeCold(b *testing.B) {
	raw := benchPlaneELF(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Config{Workers: 1, Opts: &staticverify.Options{}})
		if _, err := s.Randomize(Request{Image: raw, Vehicle: "bench", Epoch: uint64(i)}); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkArmoryRandomizeCached is the steady state: the base is
// cached and each iteration provisions a distinct vehicle off the
// shared preprocessing — the per-artifact cost of fleet batches.
func BenchmarkArmoryRandomizeCached(b *testing.B) {
	raw := benchPlaneELF(b)
	s := New(Config{Workers: 1, Opts: &staticverify.Options{}})
	defer s.Close()
	if _, err := s.Randomize(Request{Image: raw, Vehicle: "warmup", Epoch: 0}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Randomize(Request{Image: raw, Vehicle: fmt.Sprintf("bench-%d", i), Epoch: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArmoryRandomizeDefault is ArmoryRandomizeCached under the
// service's own options (nil Opts: gadget audit and VSA), the
// configuration mavr-armory serves with.
func BenchmarkArmoryRandomizeDefault(b *testing.B) {
	raw := benchPlaneELF(b)
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Randomize(Request{Image: raw, Vehicle: "warmup", Epoch: 0}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Randomize(Request{Image: raw, Vehicle: fmt.Sprintf("bench-%d", i), Epoch: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArmoryHTTP is ArmoryRandomizeDefault through the HTTP API:
// one loopback Client posting ArduPlane to Handler for a new vehicle
// each iteration, server and client in this process. It is the
// per-artifact cost of the armory-fleet workload: the service, the
// artifact format on both ends and the client's checks.
func BenchmarkArmoryHTTP(b *testing.B) {
	raw := benchPlaneELF(b)
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	c := NewClient(srv.URL, DefaultSecret)
	c.HTTPClient = srv.Client()
	if _, err := c.Randomize(raw, "warmup", 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Randomize(raw, fmt.Sprintf("bench-%d", i), 0); err != nil {
			b.Fatal(err)
		}
	}
}
