package staticverify

import (
	"bytes"
	"math/rand"
	"testing"

	"mavr/internal/avr"
	"mavr/internal/core"
	"mavr/internal/firmware"
)

func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameReport asserts the cached and fresh verification paths
// produced byte-identical reports (JSON and text renderings).
func requireSameReport(t *testing.T, fresh, cached *Report, ctx string) {
	t.Helper()
	fb, cb := reportBytes(t, fresh), reportBytes(t, cached)
	if !bytes.Equal(fb, cb) {
		t.Fatalf("%s: cached report diverges from fresh\nfresh:\n%s\ncached:\n%s", ctx, fb, cb)
	}
}

// TestBaseVerifyMatchesFresh proves the cached-handle equivalence
// contract on clean randomizations: NewBase(pre, opts).Verify(r) must
// be byte-identical to Verify(pre, r, opts), across seeds and with the
// gadget audit both off and on, and must resolve via the fast path.
func TestBaseVerifyMatchesFresh(t *testing.T) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, DefaultOptions()} {
		base := NewBase(pre, opts)
		for seed := int64(1); seed <= 5; seed++ {
			r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(seed)), len(pre.Blocks)))
			if err != nil {
				t.Fatal(err)
			}
			fresh := Verify(pre, r, opts)
			cached := base.Verify(r)
			if !fresh.OK() {
				t.Fatalf("seed %d: fresh verification unexpectedly failed", seed)
			}
			requireSameReport(t, fresh, cached, "clean outcome")
		}
		st := base.Stats()
		if st.FastVerifies != 5 || st.FallbackVerifies != 0 {
			t.Fatalf("opts %+v: want 5 fast / 0 fallback verifies, got %+v", opts, st)
		}
	}
}

// TestBaseVerifyFallbackMatchesFresh injects every rewriter-defect
// class the diff must catch and proves the cached handle still returns
// exactly the fresh report (via its fallback path) — defects never get
// a different (or rosier) report because a cache was involved.
func TestBaseVerifyFallbackMatchesFresh(t *testing.T) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) *core.Randomized {
		r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(seed)), len(pre.Blocks)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cases := []struct {
		name   string
		tamper func(r *core.Randomized)
	}{
		{"unpatched transfer", func(r *core.Randomized) {
			if _, err := RevertPatch(pre, r, 3); err != nil {
				t.Fatal(err)
			}
		}},
		{"unpatched pointer", func(r *core.Randomized) {
			if _, err := RevertPointerPatch(pre, r, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupted non-transfer word", func(r *core.Randomized) {
			// Flip a byte in the middle of the shuffled region; if it
			// happens to land on a transfer the diff still catches it.
			r.Image[(pre.RegionStart+pre.RegionEnd)/2] ^= 0x55
		}},
		{"truncated image", func(r *core.Randomized) {
			r.Image = r.Image[:len(r.Image)-2]
		}},
	}
	base := NewBase(pre, DefaultOptions())
	for _, tc := range cases {
		r := mk(7)
		tc.tamper(r)
		fresh := Verify(pre, r, DefaultOptions())
		cached := base.Verify(r)
		if fresh.OK() {
			t.Fatalf("%s: fresh verification missed the injected defect", tc.name)
		}
		requireSameReport(t, fresh, cached, tc.name)
	}
	n := uint64(len(cases))
	if st := base.Stats(); st != (BaseStats{FallbackVerifies: n, FallbackDiffDivergence: n}) {
		t.Fatalf("want %d fallbacks, all diff divergences, got %+v", n, st)
	}

	// A clean outcome whose image differs from the base on a flash byte
	// the cached analysis read: the structural diff passes (the byte is
	// data past the shuffled region), so only the read check falls back.
	vsaOpts := DefaultOptions()
	vsaOpts.VSA = true
	vbase := NewBase(pre, vsaOpts)
	if len(vbase.vsaRes.Reads) == 0 || vbase.vsaRes.Reads[0].Off < pre.RegionEnd {
		t.Fatalf("want a cached read past the shuffled region, got %+v", vbase.vsaRes.Reads)
	}
	r := mk(7)
	r.Image[vbase.vsaRes.Reads[0].Off] ^= 0xFF
	requireSameReport(t, Verify(pre, r, vsaOpts), vbase.Verify(r), "vsa read changed")
	if st := vbase.Stats(); st != (BaseStats{FallbackVerifies: 1, FallbackVSAReadsChanged: 1}) {
		t.Fatalf("want one VSA-reads fallback, got %+v", st)
	}

	// A base whose own CFG has a finding: an invalid opcode over the
	// first plain instruction of the first block. The randomizer refuses
	// such a base, so verify the clean base's outcome against it.
	bad := *pre
	bad.Image = append([]byte(nil), pre.Image...)
	invalid := uint16(0)
	for avr.Decode(invalid, 0).Op != avr.OpInvalid {
		invalid++
	}
	for pc := pre.Blocks[0].Start / 2; ; pc++ {
		if op := avr.DecodeAt(bad.Image, pc).Op; op == avr.OpLDI || op == avr.OpPUSH {
			bad.Image[2*pc], bad.Image[2*pc+1] = byte(invalid), byte(invalid>>8)
			break
		}
	}
	bbase := NewBase(&bad, DefaultOptions())
	r = mk(7)
	requireSameReport(t, Verify(&bad, r, DefaultOptions()), bbase.Verify(r), "base findings")
	if st := bbase.Stats(); st != (BaseStats{FallbackVerifies: 1, FallbackBaseFindings: 1}) {
		t.Fatalf("want one base-findings fallback, got %+v", st)
	}
}

// TestBaseVerifyMatchesFreshArduplane runs one full-scale equivalence
// check on the ArduPlane-sized profile — the image the armory and the
// benchmarks exercise.
func TestBaseVerifyMatchesFreshArduplane(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale image in -short mode")
	}
	img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(1)), len(pre.Blocks)))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{} // the pre-flash gate configuration the master uses
	base := NewBase(pre, opts)
	requireSameReport(t, Verify(pre, r, opts), base.Verify(r), "arduplane")
	if st := base.Stats(); st.FastVerifies != 1 {
		t.Fatalf("want fast path, got %+v", st)
	}
}

// BenchmarkNewBase measures the armory's cold path on an
// ArduPlane-scale base: CFG recovery, value-set analysis and the
// gadget census under the options the armory serves with.
func BenchmarkNewBase(b *testing.B) {
	img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.VSA = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := NewBase(pre, opts).VSASummary(); !ok {
			b.Fatal("base has no analysis")
		}
	}
}
