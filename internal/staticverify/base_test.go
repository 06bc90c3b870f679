package staticverify

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// requireSameReport asserts the verifier rendered the reference
// verifier's report byte for byte (JSON and text renderings).
func requireSameReport(t *testing.T, ref, got *Report, ctx string) {
	t.Helper()
	rb, gb := reportBytes(t, ref), reportBytes(t, got)
	if !bytes.Equal(rb, gb) {
		t.Fatalf("%s: report diverges from the reference\nreference:\n%s\ngot:\n%s", ctx, rb, gb)
	}
}

// invalidWord returns the lowest opcode word the decoder rejects.
func invalidWord() uint16 {
	w := uint16(0)
	for avr.Decode(w, 0).Op != avr.OpInvalid {
		w++
	}
	return w
}

// TestBaseVerifyMatchesFresh proves the equivalence contract on clean
// randomizations: NewBase(pre, opts).Verify(r) must be byte-identical
// to the reference refVerify(pre, r, opts), across seeds and with the
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
			fresh := refVerify(pre, r, opts)
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
// class the diff must catch and proves the handle still returns
// exactly the reference report (via its fallback path) — defects never
// get a different (or rosier) report because a cache was involved —
// and counts each fallback under its cause.
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
		fresh := refVerify(pre, r, DefaultOptions())
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
	requireSameReport(t, refVerify(pre, r, vsaOpts), vbase.Verify(r), "vsa read changed")
	if st := vbase.Stats(); st != (BaseStats{FallbackVerifies: 1, FallbackVSAReadsChanged: 1}) {
		t.Fatalf("want one VSA-reads fallback, got %+v", st)
	}

	// A base whose own CFG has a finding: an invalid opcode over the
	// first plain instruction of the first block. The randomizer refuses
	// such a base, so verify the clean base's outcome against it.
	bad := *pre
	bad.Image = append([]byte(nil), pre.Image...)
	invalid := invalidWord()
	for pc := pre.Blocks[0].Start / 2; ; pc++ {
		if op := avr.DecodeAt(bad.Image, pc).Op; op == avr.OpLDI || op == avr.OpPUSH {
			bad.Image[2*pc], bad.Image[2*pc+1] = byte(invalid), byte(invalid>>8)
			break
		}
	}
	bbase := NewBase(&bad, DefaultOptions())
	r = mk(7)
	requireSameReport(t, refVerify(&bad, r, DefaultOptions()), bbase.Verify(r), "base findings")
	if st := bbase.Stats(); st != (BaseStats{FallbackVerifies: 1, FallbackBaseFindings: 1}) {
		t.Fatalf("want one base-findings fallback, got %+v", st)
	}
}

// TestPatchDiffMatchesReference holds the indexed patch diff to the
// reference lockstep walk: the same findings (kinds, addresses, blocks,
// details and truncation points) and the same stats, on a randomized
// test application with every third byte corrupted in turn, with every
// transfer and pointer patch reverted in turn, and truncated; on a base
// with spm in its fixed region, which CFG recovery does not flag; and
// on bases whose linear decode stops early in block 0, at an invalid
// opcode or a two-word instruction overrunning the block, also with
// block 0 placed last in an image that ends with the region. A block
// placed past the image end fails the layout check instead: one
// bad-layout finding, and no walk.
func TestPatchDiffMatchesReference(t *testing.T) {
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
		wantFs, wantSt := refVerifyPatches(base.pre, r)
		fs, st, _ := base.diff(r)
		if !reflect.DeepEqual(fs, wantFs) || st != wantSt {
			t.Fatalf("%s: diff = %v, %+v; reference %v, %+v", what, fs, st, wantFs, wantSt)
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
		t.Fatal("spm base has CFG findings; only the diff should flag it")
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
	copy(r.Image, clean.Image)
	r.Image = r.Image[:len(r.Image)-2]
	check(base, &r, "truncated image")
	r.Image = r.Image[:len(clean.Image)]

	// The last word of block 0 rewritten in the base alone, then in the
	// outcome too, at the block's new location.
	last := pre.Blocks[0].End() - 2
	moved := clean.NewStart[0] + pre.Blocks[0].Size - 2
	for _, w := range []uint16{invalidWord(), 0x9000} { // invalid, lds r0 (two words)
		mod := *pre
		mod.Image = append([]byte(nil), pre.Image...)
		mod.Image[last], mod.Image[last+1] = byte(w), byte(w>>8)
		mb := NewBase(&mod, Options{})
		copy(r.Image, clean.Image)
		check(mb, &r, fmt.Sprintf("base word 0x%04X", w))
		r.Image[moved], r.Image[moved+1] = byte(w), byte(w>>8)
		check(mb, &r, fmt.Sprintf("base and outcome word 0x%04X", w))

		// Block 0 placed last, unpatched, in an image that ends with the
		// region: the overrunning word then lies past the end.
		tail := mod
		tail.Image = mod.Image[:pre.RegionEnd:pre.RegionEnd]
		tail.PtrOffsets, tail.PtrTables = nil, nil
		size0 := pre.Blocks[0].Size
		atEnd := &core.Randomized{NewStart: make([]uint32, len(pre.Blocks))}
		atEnd.Image = append(atEnd.Image, tail.Image[:pre.RegionStart]...)
		atEnd.Image = append(atEnd.Image, tail.Image[pre.Blocks[1].Start:]...)
		atEnd.Image = append(atEnd.Image, tail.Image[pre.Blocks[0].Start:pre.Blocks[0].End()]...)
		for i, b := range pre.Blocks {
			atEnd.NewStart[i] = b.Start - size0
		}
		atEnd.NewStart[0] = pre.RegionEnd - size0
		tb := NewBase(&tail, Options{})
		check(tb, atEnd, fmt.Sprintf("word 0x%04X at the image end", w))
		if fs, _, _ := tb.diff(atEnd); !slices.ContainsFunc(fs, func(f Finding) bool { return f.Addr == pre.RegionEnd-2 }) {
			t.Fatalf("word 0x%04X at the image end: no finding at 0x%X: %v", w, pre.RegionEnd-2, fs)
		}
	}

	copy(r.Image, clean.Image)
	r.NewStart = append([]uint32(nil), clean.NewStart...)
	biggest := 0
	for i, b := range pre.Blocks {
		if b.Size > pre.Blocks[biggest].Size {
			biggest = i
		}
	}
	r.NewStart[biggest] = uint32(len(r.Image)) - 2
	fs, st, laidOut := base.diff(&r)
	if laidOut || len(fs) != 1 || fs[0].Kind != KindBadLayout || st != (DiffStats{}) {
		t.Fatalf("block past the image end: diff = %v, %+v, laid out %v; want one %s finding",
			fs, st, laidOut, KindBadLayout)
	}
}

// TestSingleBitFlipsAreFindings requires the patch diff to report
// every single-bit change of a clean randomization below the region
// end: on the test application each such bit is flipped in turn; on
// ArduPlane the three status-flag bits of every conditional branch are,
// plus a seeded sample of the other bits.
func TestSingleBitFlipsAreFindings(t *testing.T) {
	for _, spec := range []firmware.AppSpec{firmware.TestApp(), firmware.Arduplane()} {
		exhaustive := spec.Name == firmware.TestApp().Name
		if !exhaustive && testing.Short() {
			continue
		}
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := core.Preprocess(img.ELF)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(7)), len(pre.Blocks)))
		if err != nil {
			t.Fatal(err)
		}
		base := NewBase(pre, Options{})
		var bits []int
		if exhaustive {
			for bit := 0; bit < int(pre.RegionEnd)*8; bit++ {
				bits = append(bits, bit)
			}
		} else {
			for ri, reg := range base.regions {
				newW := reg.oldStart / 2
				if ri > 0 {
					newW = r.NewStart[ri-1] / 2
				}
				for _, s := range reg.sites {
					if s.op == avr.OpBRBS || s.op == avr.OpBRBC {
						bits = append(bits, int(newW+s.pc)*16, int(newW+s.pc)*16+1, int(newW+s.pc)*16+2)
					}
				}
			}
			if len(bits) == 0 {
				t.Fatalf("%s: no conditional branch", spec.Name)
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 4000; i++ {
				bits = append(bits, rng.Intn(int(pre.RegionEnd)*8))
			}
		}
		var clean []int
		for _, bit := range bits {
			r.Image[bit/8] ^= 1 << (bit % 8)
			if fs, _, _ := base.diff(r); len(fs) == 0 {
				clean = append(clean, bit)
			}
			r.Image[bit/8] ^= 1 << (bit % 8)
		}
		if len(clean) > 0 {
			t.Errorf("%s: %d of %d single-bit flips diff clean, the first at byte 0x%X bit %d",
				spec.Name, len(clean), len(bits), clean[0]/8, clean[0]%8)
		}
	}
}

// TestCheckLayoutTiling checks the layout rule on a hand-built region
// of three blocks, one of them empty: relocated blocks must tile the
// region exactly, and an empty block must sit where a block starts or
// the region ends. An accepted layout's entries are exactly its starts.
func TestCheckLayoutTiling(t *testing.T) {
	pre := &core.Preprocessed{
		Image:       make([]byte, 0x110),
		Blocks:      []core.Block{{Name: "a", Start: 0x100, Size: 8}, {Name: "z", Start: 0x108}, {Name: "b", Start: 0x108, Size: 4}},
		RegionStart: 0x100,
		RegionEnd:   0x10C,
	}
	for _, tc := range []struct {
		starts []uint32 // a, z, b
		ok     bool
	}{
		{[]uint32{0x100, 0x108, 0x108}, true},
		{[]uint32{0x104, 0x104, 0x100}, true},
		{[]uint32{0x104, 0x100, 0x100}, true},
		{[]uint32{0x100, 0x10C, 0x108}, true},
		{[]uint32{0x104, 0x10C, 0x100}, true},
		{[]uint32{0x104, 0x102, 0x100}, false}, // z inside b
		{[]uint32{0x104, 0x10E, 0x100}, false}, // z past the region end
		{[]uint32{0x100, 0x108, 0x100}, false}, // a and b at one start
		{[]uint32{0x104, 0x104, 0x102}, false}, // b overlaps a
		{[]uint32{0x104, 0x104, 0x108}, false}, // b inside a, nothing at the region start
		{[]uint32{0x102, 0x102, 0x10A}, false}, // b outside the region
		{[]uint32{0x100, 0x108, 0x106}, false}, // b overlaps a's end
		{[]uint32{0x100, 0x108}, false},
	} {
		r := &core.Randomized{Image: make([]byte, len(pre.Image)), NewStart: tc.starts}
		starts, fs := checkLayout(pre, r)
		if ok := fs == nil; ok != tc.ok {
			t.Fatalf("starts %#x: accepted %v, want %v: %v", tc.starts, ok, tc.ok, fs)
		}
		if !tc.ok {
			if len(fs) != 1 || fs[0].Kind != KindBadLayout {
				t.Fatalf("starts %#x: findings %v, want one %s", tc.starts, fs, KindBadLayout)
			}
			continue
		}
		for a := uint32(0); a < 0x120; a++ {
			if want := slices.Contains(tc.starts, a); starts.has(a) != want {
				t.Fatalf("starts %#x: has(0x%X) = %v, want %v", tc.starts, a, !want, want)
			}
		}
	}
	r := &core.Randomized{Image: make([]byte, len(pre.Image)-2), NewStart: []uint32{0x100, 0x108, 0x108}}
	if _, fs := checkLayout(pre, r); len(fs) != 1 || fs[0].Kind != KindSizeMismatch {
		t.Fatalf("short image: findings %v, want one %s", fs, KindSizeMismatch)
	}
	// A base whose blocks overrun its region has no tiling layout, even
	// where every relocated block ends where another starts.
	over := &core.Preprocessed{
		Image:       pre.Image,
		Blocks:      []core.Block{{Name: "x", Start: 0x100, Size: 4}, {Name: "y", Start: 0x104, Size: 6}, {Name: "w", Start: 0x10A, Size: 2}},
		RegionStart: 0x100,
		RegionEnd:   0x10A,
	}
	r = &core.Randomized{Image: make([]byte, len(pre.Image)), NewStart: []uint32{0x100, 0x104, 0x102}}
	if _, fs := checkLayout(over, r); len(fs) != 1 || fs[0].Kind != KindBadLayout {
		t.Fatalf("base overrunning its region: findings %v, want one %s", fs, KindBadLayout)
	}
}

// FuzzBaseVerify holds the verifier to the reference stateless one on
// mutated randomizations: a seeded permutation of the test application
// or ArduPlane, then no mutation, byte flips anywhere in the image, one
// reverted transfer or pointer patch, one flipped bit, or a ret word
// planted at a random word. For Options{} and for the armory's options
// (gadget audit and VSA), NewBase(pre, opts).Verify(r) must render
// exactly the report refVerify(pre, r, opts) does, whichever path it
// takes; refVerify's gadget audit is the full-scan census.
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
	const mutations = 6
	for mutation := uint64(0); mutation < 4*mutations; mutation++ {
		f.Add(uint8(0), int64(7), mutation)
	}
	for mutation := uint64(0); mutation < mutations; mutation++ {
		f.Add(uint8(1), int64(7), mutation)
	}
	f.Fuzz(func(t *testing.T, app uint8, seed int64, mutation uint64) {
		sub := subjects[int(app)%len(subjects)]
		pre := sub.pre
		r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(seed)), len(pre.Blocks)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(mutation / mutations)))
		switch mutation % mutations {
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
		case 4:
			r.Image[rng.Intn(len(r.Image))] ^= 1 << rng.Intn(8)
		case 5:
			plantRet(r.Image, uint32(rng.Intn(len(r.Image)/2)))
		}
		for _, base := range sub.bases {
			requireSameReport(t, refVerify(pre, r, base.opts), base.Verify(r), "mutated randomization")
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
	requireSameReport(t, refVerify(pre, r, opts), base.Verify(r), "arduplane")
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
