package staticverify

import (
	"math/rand"
	"testing"

	"mavr/internal/core"
	"mavr/internal/firmware"
)

// benchPlane returns an ArduPlane-scale base and its seed-1
// randomization.
func benchPlane(b *testing.B) (*core.Preprocessed, *core.Randomized) {
	b.Helper()
	img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(1)), len(pre.Blocks)))
	if err != nil {
		b.Fatal(err)
	}
	return pre, r
}

// BenchmarkStaticVerify is the full verification (CFG + diff, no
// gadget audit) of an ArduPlane-scale randomization — the pre-flash
// gate the master runs on every re-randomization.
func BenchmarkStaticVerify(b *testing.B) {
	pre, r := benchPlane(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(pre, r, Options{}).OK() {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkStaticVerifyVSA adds the value-set analysis: abstract
// interpretation of every recovered function, indirect-site resolution
// and stack-discipline proofs — the armory's per-base analysis cost
// before translation amortizes it across the fleet.
func BenchmarkStaticVerifyVSA(b *testing.B) {
	pre, r := benchPlane(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(pre, r, Options{VSA: true}).OK() {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkStaticVerifyCached runs StaticVerify's check through a
// reusable Base: CFG recovery is paid once outside the loop, each
// iteration runs the cached lockstep diff — the armory's per-artifact
// cost on a cache hit.
func BenchmarkStaticVerifyCached(b *testing.B) {
	pre, r := benchPlane(b)
	base := NewBase(pre, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !base.Verify(r).OK() {
			b.Fatal("verification failed")
		}
	}
}
