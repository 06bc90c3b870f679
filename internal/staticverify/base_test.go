package staticverify

import (
	"bytes"
	"fmt"
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

// TestFastDiffMatchesVerifyPatches holds the cached diff to its
// contract — it passes exactly when VerifyPatches finds nothing, and
// then with the same stats — on a randomized test application with
// every third byte corrupted in turn, and with every transfer and
// pointer patch reverted in turn, and with a block placed past the
// image end; and on a base with spm in its fixed region, which CFG
// recovery does not flag, so only the diff keeps it off the fast path.
func TestFastDiffMatchesVerifyPatches(t *testing.T) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	check := func(base *Base, r *core.Randomized, what string) {
		t.Helper()
		fs, want := VerifyPatches(base.pre, r)
		got, ok := base.fastDiff(r)
		if ok != (len(fs) == 0) || ok && got != want {
			t.Fatalf("%s: fastDiff = %+v, %v; VerifyPatches found %d (%+v)", what, got, ok, len(fs), want)
		}
	}
	randomize := func(pre *core.Preprocessed) *core.Randomized {
		r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(7)), len(pre.Blocks)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	spm := *pre
	spm.Image = append([]byte(nil), pre.Image...)
	spm.Image[0], spm.Image[1], spm.Image[2], spm.Image[3] = 0xE8, 0x95, 0, 0 // spm; nop
	if sb := NewBase(&spm, Options{}); !sb.cfgClean {
		t.Fatal("spm base has CFG findings; the diff would never run")
	} else {
		check(sb, randomize(&spm), "spm in the fixed region")
	}

	base := NewBase(pre, Options{})
	clean := randomize(pre)
	check(base, clean, "clean outcome")
	r := *clean
	r.Image = make([]byte, len(clean.Image)) // no capacity past the end
	copy(r.Image, clean.Image)
	for off := 0; off < len(r.Image); off += 3 {
		r.Image[off] ^= 0xA5
		check(base, &r, fmt.Sprintf("byte 0x%X flipped", off))
		r.Image[off] = clean.Image[off]
	}
	for n := 0; ; n++ {
		copy(r.Image, clean.Image)
		if _, err := RevertPatch(pre, &r, n); err != nil {
			break
		}
		check(base, &r, fmt.Sprintf("transfer patch %d reverted", n))
	}
	for n := 0; ; n++ {
		copy(r.Image, clean.Image)
		if _, err := RevertPointerPatch(pre, &r, n); err != nil {
			break
		}
		check(base, &r, fmt.Sprintf("pointer patch %d reverted", n))
	}
	// A layout claiming a block runs past the image end: both diffs
	// read the missing words as 0xFFFF.
	copy(r.Image, clean.Image)
	r.NewStart = append([]uint32(nil), clean.NewStart...)
	biggest := 0
	for i, b := range pre.Blocks {
		if b.Size > pre.Blocks[biggest].Size {
			biggest = i
		}
	}
	r.NewStart[biggest] = uint32(len(r.Image)) - 2
	check(base, &r, "block past the image end")
}

// FuzzBaseVerify holds the cached verifier to the stateless one on
// mutated randomizations: a seeded permutation of the test application
// or ArduPlane, then no mutation, byte flips anywhere in the image, or
// one reverted transfer or pointer patch. For Options{} and for the
// armory's options (gadget audit and VSA), NewBase(pre, opts).Verify(r)
// must render exactly the report Verify(pre, r, opts) does, whichever
// path it takes.
func FuzzBaseVerify(f *testing.F) {
	type subject struct {
		pre   *core.Preprocessed
		bases []*Base
	}
	vsaOpts := DefaultOptions()
	vsaOpts.VSA = true
	var subjects []subject
	for _, spec := range []firmware.AppSpec{firmware.TestApp(), firmware.Arduplane()} {
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			f.Fatal(err)
		}
		pre, err := core.Preprocess(img.ELF)
		if err != nil {
			f.Fatal(err)
		}
		subjects = append(subjects, subject{pre, []*Base{NewBase(pre, Options{}), NewBase(pre, vsaOpts)}})
	}
	for mutation := uint64(0); mutation < 16; mutation++ {
		f.Add(uint8(0), int64(7), mutation)
	}
	for mutation := uint64(0); mutation < 4; mutation++ {
		f.Add(uint8(1), int64(7), mutation)
	}
	f.Fuzz(func(t *testing.T, app uint8, seed int64, mutation uint64) {
		sub := subjects[int(app)%len(subjects)]
		pre := sub.pre
		r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(seed)), len(pre.Blocks)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(mutation >> 2)))
		switch mutation % 4 {
		case 1:
			// Flips above the shuffled region leave the diff passing, so
			// the fast path must render a mutated image too.
			lo := 0
			if rng.Intn(2) == 0 {
				lo = int(pre.RegionEnd)
			}
			for i := rng.Intn(4); i >= 0; i-- {
				r.Image[lo+rng.Intn(len(r.Image)-lo)] ^= byte(1 + rng.Intn(255))
			}
		case 2:
			RevertPatch(pre, r, rng.Intn(r.PatchedTransfers+1))
		case 3:
			RevertPointerPatch(pre, r, rng.Intn(r.PatchedPointers+1))
		}
		for _, base := range sub.bases {
			requireSameReport(t, Verify(pre, r, base.opts), base.Verify(r), "mutated randomization")
		}
	})
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
