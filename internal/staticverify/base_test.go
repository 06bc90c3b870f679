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
// gadget audit both off and on.
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
	}
}

// requireContract holds Base.Verify to the reference verifier on one
// outcome: the same verdict; where the diff is clean, the same report
// byte for byte; otherwise the diff's findings and stats are the
// reference diff's, and the report is those findings and stats, a zero
// CFG, no analysis and the gadget census.
func requireContract(t *testing.T, base *Base, r *core.Randomized, ctx string) {
	t.Helper()
	ref, got := refVerify(base.pre, r, base.opts), base.Verify(r)
	if ref.OK() != got.OK() {
		t.Fatalf("%s: verdict OK=%v, reference OK=%v\nfindings: %v\nreference: %v", ctx, got.OK(), ref.OK(), got.Findings, ref.Findings)
	}
	fs, st := base.diff(r)
	if len(fs) == 0 {
		requireSameReport(t, ref, got, ctx)
		return
	}
	if wantFs, wantSt := refVerifyPatches(base.pre, r); !reflect.DeepEqual(fs, wantFs) || st != wantSt {
		t.Fatalf("%s: diff = %v, %+v; reference %v, %+v", ctx, fs, st, wantFs, wantSt)
	}
	if got.CFG != (CFGStats{}) || got.VSA != nil || got.Diff != st {
		t.Fatalf("%s: defective report has cfg %+v, vsa %v, diff %+v", ctx, got.CFG, got.VSA != nil, got.Diff)
	}
	var own []Finding
	for _, f := range got.Findings {
		if f.Kind != KindStableGadget {
			own = append(own, f)
		}
	}
	sortFindings(fs)
	if !reflect.DeepEqual(own, fs) {
		t.Fatalf("%s: report findings %v, want the diff's %v", ctx, own, fs)
	}
}

// TestBaseVerifyDefectiveOutcomes injects every rewriter-defect class
// the diff must catch — an unpatched transfer or pointer, a corrupted
// code word, a changed data byte past the code region (one the
// analysis reads as a table), a truncated image — and a base whose own
// CFG has an error, and holds each report to requireContract: defects
// never get a rosier verdict because a cache was involved.
func TestBaseVerifyDefectiveOutcomes(t *testing.T) {
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
	vsaOpts := DefaultOptions()
	vsaOpts.VSA = true
	bases := []*Base{NewBase(pre, Options{}), NewBase(pre, vsaOpts)}
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
		{"table byte changed", func(r *core.Randomized) {
			// The first byte of a pointer table past the first pointer
			// slot: data the analysis concretizes.
			off := pre.PtrTables[0].FlashOff + 2
			if slices.Contains(pre.PtrOffsets, off) || off < pre.RegionEnd {
				t.Fatalf("table byte 0x%X is a pointer slot or code", off)
			}
			r.Image[off] ^= 0xFF
		}},
		{"last data byte changed", func(r *core.Randomized) {
			r.Image[len(r.Image)-1] ^= 0x01
		}},
		{"truncated image", func(r *core.Randomized) {
			r.Image = r.Image[:len(r.Image)-2]
		}},
	}
	for _, tc := range cases {
		r := mk(7)
		tc.tamper(r)
		for _, base := range bases {
			if base.Verify(r).OK() {
				t.Fatalf("%s: verification missed the injected defect", tc.name)
			}
			requireContract(t, base, r, tc.name)
		}
	}

	// A base whose own CFG has an error finding: an invalid opcode over
	// the first plain instruction of the first block. The randomizer
	// refuses such a base, so verify the clean base's outcome against it.
	bad := *pre
	bad.Image = append([]byte(nil), pre.Image...)
	invalid := invalidWord()
	for pc := pre.Blocks[0].Start / 2; ; pc++ {
		if op := avr.DecodeAt(bad.Image, pc).Op; op == avr.OpLDI || op == avr.OpPUSH {
			bad.Image[2*pc], bad.Image[2*pc+1] = byte(invalid), byte(invalid>>8)
			break
		}
	}
	for _, opts := range []Options{{}, vsaOpts} {
		requireContract(t, NewBase(&bad, opts), mk(7), "base findings")
	}
}

// TestBaseVerifyTranslatesBaseFindings holds the translation of a base
// CFG that is not clean to the reference on every outcome, clean or
// not: bases with a transfer onto a jmp/call's target word, an rjmp
// into another function's interior, or a function whose final ret is a
// nop, on the test application and permutation seeds 1–10. Each kind
// shows up in the reports: the transfer is an error on every outcome,
// and the other two are warnings whose clean outcomes keep them at
// their translated addresses.
func TestBaseVerifyTranslatesBaseFindings(t *testing.T) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	vsaOpts := DefaultOptions()
	vsaOpts.VSA = true
	for kind := baseMutation(1); kind < baseMutations; kind++ {
		mpre := mutateBase(pre, kind, 0)
		if mpre == nil {
			t.Fatalf("%s: no site in the test application", kind)
		}
		bases := []*Base{NewBase(mpre, Options{}), NewBase(mpre, vsaOpts)}
		clean := 0
		for seed := int64(1); seed <= 10; seed++ {
			r, err := core.Randomize(mpre, core.Permutation(rand.New(rand.NewSource(seed)), len(mpre.Blocks)))
			if err != nil {
				continue
			}
			for _, base := range bases {
				requireContract(t, base, r, fmt.Sprintf("%s, seed %d", kind, seed))
			}
			rep := bases[0].Verify(r)
			if kind == mutOperandCall {
				if rep.OK() {
					t.Fatalf("%s, seed %d: verified clean", kind, seed)
				}
				continue
			}
			if rep.OK() {
				clean++
				if rep.Warnings() == 0 {
					t.Fatalf("%s, seed %d: clean report without the base's warning", kind, seed)
				}
			}
		}
		if kind != mutOperandCall && clean == 0 {
			t.Fatalf("%s: no seed randomized to a clean outcome", kind)
		}
	}
}

// baseMutation is a change to a base image that the randomizer still
// lays out, leaving the base CFG not clean.
type baseMutation uint8

const (
	mutNone baseMutation = iota
	// mutOperandCall: a function's first instruction becomes an rcall
	// to the target word of a jmp/call into a block in the same
	// function.
	mutOperandCall
	// mutInteriorJump: a function's first instruction becomes an rjmp
	// to the second instruction of the next function.
	mutInteriorJump
	// mutFallThrough: a function's final ret becomes a nop.
	mutFallThrough
	baseMutations
)

func (m baseMutation) String() string {
	return [...]string{"none", "rcall onto a target word", "rjmp into an interior", "ret turned nop"}[m]
}

// baseSite is where a base mutation writes, and the word it writes.
type baseSite struct {
	at   uint32
	word uint16
}

// baseSites lists the sites of base mutation kind in pre: functions in
// pre.Blocks order whose first instruction is one word and, for
// mutOperandCall, that hold a jmp/call into a block within rcall reach
// of it (the first such one is the target), for mutInteriorJump, whose
// next function's second instruction is within rjmp reach, and for
// mutFallThrough, whose last word is a ret.
func baseSites(pre *core.Preprocessed, kind baseMutation) []baseSite {
	var sites []baseSite
	rel := func(from, to uint32) (uint16, bool) {
		k := int(to/2) - int(from/2) - 1
		return uint16(k & 0xFFF), k >= -2048 && k < 2048
	}
	for i, b := range pre.Blocks {
		if b.Size == 0 || avr.DecodeAt(pre.Image, b.Start/2).Words != 1 {
			continue
		}
		switch kind {
		case mutOperandCall:
			for pc := b.Start/2 + 1; pc < b.End()/2; {
				in := avr.DecodeAt(pre.Image, pc)
				if in.Op == avr.OpInvalid {
					break
				}
				if k, ok := rel(b.Start, (pc+1)*2); ok && (in.Op == avr.OpJMP || in.Op == avr.OpCALL) &&
					pre.BlockIndex(in.Target*2) >= 0 {
					sites = append(sites, baseSite{b.Start, 0xD000 | k})
					break
				}
				pc += uint32(in.Words)
			}
		case mutInteriorJump:
			if i+1 < len(pre.Blocks) {
				nb := pre.Blocks[i+1]
				to := nb.Start + uint32(avr.DecodeAt(pre.Image, nb.Start/2).Words)*2
				if k, ok := rel(b.Start, to); ok && to < nb.End() {
					sites = append(sites, baseSite{b.Start, 0xC000 | k})
				}
			}
		case mutFallThrough:
			if last := b.End() - 2; wordAt(pre.Image, last/2) == 0x9508 {
				sites = append(sites, baseSite{last, 0x0000})
			}
		}
	}
	return sites
}

// mutateBase applies the n-th site (modulo their number) of base
// mutation kind to a copy of pre, or returns nil when pre has none.
func mutateBase(pre *core.Preprocessed, kind baseMutation, n int) *core.Preprocessed {
	sites := baseSites(pre, kind)
	if len(sites) == 0 {
		return nil
	}
	s := sites[n%len(sites)]
	out := *pre
	out.Image = slices.Clone(pre.Image)
	out.Image[s.at], out.Image[s.at+1] = byte(s.word), byte(s.word>>8)
	return &out
}

// arduplaneOperandBase is ArduPlane with the push that opens
// AP_Navigation_apply_rate_3 (0x3F8) replaced by an rcall to 0x438,
// the target word of the call 0x2DA at 0x436 into a block. Its CFG is
// clean: the rcall stays inside the function.
func arduplaneOperandBase(t testing.TB) *core.Preprocessed {
	t.Helper()
	img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	i := pre.BlockIndex(0x3F8)
	if i < 0 || pre.Blocks[i].Name != "AP_Navigation_apply_rate_3" || pre.Blocks[i].Start != 0x3F8 ||
		avr.DecodeAt(pre.Image, 0x3F8/2).Op != avr.OpPUSH || avr.DecodeAt(pre.Image, 0x436/2).Op != avr.OpCALL {
		t.Fatal("ArduPlane no longer has the push at 0x3F8 and the call at 0x436")
	}
	mod := *pre
	mod.Image = slices.Clone(pre.Image)
	rcall := uint16(0xD000 | (0x438/2 - 0x3F8/2 - 1))
	mod.Image[0x3F8], mod.Image[0x3F9] = byte(rcall), byte(rcall>>8)
	return &mod
}

// testappOperandBases are the test application with one word pointed
// at word 3 (byte 0x6), the target word of vector 1's jmp into a block:
// first its first tabled function pointer, then vector 2's jmp. Both
// CFGs are clean. It returns the two bases and the byte addresses of
// the pointer slot and of vector 2.
func testappOperandBases(t testing.TB) (ptr, vec *core.Preprocessed, slot, vector uint32) {
	t.Helper()
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	v1 := avr.DecodeAt(pre.Image, 2)
	if v1.Op != avr.OpJMP || pre.BlockIndex(v1.Target*2) < 0 || avr.DecodeAt(pre.Image, 4).Op != avr.OpJMP {
		t.Fatal("vector 1 no longer jumps into a block, or vector 2 is no jmp")
	}
	ptr, vec = new(core.Preprocessed), new(core.Preprocessed)
	*ptr, *vec = *pre, *pre
	ptr.Image, vec.Image = slices.Clone(pre.Image), slices.Clone(pre.Image)
	slot, vector = pre.PtrOffsets[0], 8
	ptr.Image[slot], ptr.Image[slot+1] = 3, 0
	vec.Image[vector+2], vec.Image[vector+3] = 3, 0 // jmp's target word
	return ptr, vec, slot, vector
}

// TestOperandTargetFailsEveryOutcome is the regression test for a
// transfer, function pointer or vector onto a jmp/call's target word:
// the randomizer rewrites that word, so base and permutation execute
// different code there, and a clean diff on a clean base proves nothing
// about the randomized CFG. Before the diff reported such a transfer,
// Base.Verify passed an ArduPlane base with an rcall onto one at seeds
// 1–30 while the reference verifier, which recovers each randomized
// image's own CFG, failed 3 of them; before it reported such a pointer,
// both passed the test application with its first function pointer
// onto vector 1's target word at every seed. A vector's jmp is a
// transfer the diff walks, so the transfer check covers it. All must
// now fail every seed, at the transfer, pointer slot or vector.
func TestOperandTargetFailsEveryOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale image in -short mode")
	}
	ptr, vec, slot, vector := testappOperandBases(t)
	for _, c := range []struct {
		name string
		pre  *core.Preprocessed
		at   func(*core.Preprocessed, *core.Randomized) uint32
	}{
		{"ArduPlane rcall", arduplaneOperandBase(t), func(pre *core.Preprocessed, r *core.Randomized) uint32 { return remap(pre, r, 0x3F8) }},
		{"testapp pointer", ptr, func(*core.Preprocessed, *core.Randomized) uint32 { return slot }},
		{"testapp vector", vec, func(*core.Preprocessed, *core.Randomized) uint32 { return vector }},
	} {
		pre := c.pre
		if g := Recover(pre.Image, pre.Blocks, pre.RegionStart, pre.RegionEnd); len(g.Findings) != 0 {
			t.Fatalf("%s: the base CFG has findings: %v", c.name, g.Findings)
		}
		base := NewBase(pre, DefaultOptions())
		for seed := int64(1); seed <= 30; seed++ {
			r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(seed)), len(pre.Blocks)))
			if err != nil {
				t.Fatal(err)
			}
			at := c.at(pre, r)
			rep := base.Verify(r)
			if !slices.ContainsFunc(rep.Findings, func(f Finding) bool {
				return f.Kind == KindDanglingEdge && f.Severity == SevError && f.Addr == at
			}) {
				t.Fatalf("%s, seed %d: no dangling-edge error at 0x%X: %v", c.name, seed, at, rep.Findings)
			}
			if ref := refVerify(pre, r, DefaultOptions()); ref.OK() {
				t.Fatalf("%s, seed %d: the reference verifier passed the outcome", c.name, seed)
			}
		}
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
// block 0 placed last in an image that ends with the region; and on
// bases with a function pointer or a vector onto a jmp's target word. A
// block placed past the image end fails the layout check instead: one
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
		fs, st := base.diff(r)
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
	if sb := NewBase(&spm, Options{}); len(sb.found) != 0 {
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
		if fs, _ := tb.diff(atEnd); !slices.ContainsFunc(fs, func(f Finding) bool { return f.Addr == pre.RegionEnd-2 }) {
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
	if fs, st := base.diff(&r); len(fs) != 1 || fs[0].Kind != KindBadLayout || st != (DiffStats{}) {
		t.Fatalf("block past the image end: diff = %v, %+v; want one %s finding", fs, st, KindBadLayout)
	}

	// A function pointer and a vector onto a jmp's target word.
	ptr, vec, _, _ := testappOperandBases(t)
	check(NewBase(ptr, Options{}), randomize(ptr), "pointer onto a jmp's target word")
	check(NewBase(vec, Options{}), randomize(vec), "vector onto a jmp's target word")

	// Every base mutation's first site, on its own outcome.
	for kind := baseMutation(1); kind < baseMutations; kind++ {
		mpre := mutateBase(pre, kind, 0)
		for seed := int64(1); seed <= 10; seed++ {
			if mr, err := core.Randomize(mpre, core.Permutation(rand.New(rand.NewSource(seed)), len(mpre.Blocks))); err == nil {
				check(NewBase(mpre, Options{}), mr, fmt.Sprintf("%s, seed %d", kind, seed))
			}
		}
	}
}

// TestSingleBitFlipsAreFindings requires the patch diff to report
// every single-bit change of a clean randomization: on the test
// application each bit of the image is flipped in turn, pointer slots
// and data included; on ArduPlane the three status-flag bits of every
// conditional branch are, plus a seeded sample of the other bits below
// the region end and one of the bits of the data past it.
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
			for bit := 0; bit < len(r.Image)*8; bit++ {
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
			code, data := int(pre.RegionEnd)*8, (len(r.Image)-int(pre.RegionEnd))*8
			for i := 0; i < 4000; i++ {
				bits = append(bits, rng.Intn(code))
			}
			for i := 0; i < 2000; i++ {
				bits = append(bits, code+rng.Intn(data))
			}
		}
		var clean []int
		for _, bit := range bits {
			r.Image[bit/8] ^= 1 << (bit % 8)
			if fs, _ := base.diff(r); len(fs) == 0 {
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
// mutated bases and randomizations. The base is the test application
// or ArduPlane, as generated or with one base mutation (a function's
// first instruction turned into an rcall onto a jmp/call's target word
// or an rjmp into the next function's interior, or its final ret into
// a nop); inputs whose base the randomizer refuses are skipped. The
// outcome is a seeded permutation of it, then no mutation, byte flips
// anywhere in the image, one reverted transfer or pointer patch, one
// flipped bit, or a ret word planted at a random word. For Options{}
// and for the armory's options (gadget audit and VSA), Base.Verify
// must keep requireContract: the reference's verdict, its report byte
// for byte where the diff is clean, and otherwise its diff findings.
// refVerify's gadget audit is the full-scan census.
func FuzzBaseVerify(f *testing.F) {
	type subject struct {
		pre   *core.Preprocessed
		bases []*Base
	}
	vsaOpts := DefaultOptions()
	vsaOpts.VSA = true
	newSubject := func(pre *core.Preprocessed) *subject {
		return &subject{pre, []*Base{NewBase(pre, Options{}), NewBase(pre, vsaOpts)}}
	}
	var apps []*core.Preprocessed
	for _, spec := range []firmware.AppSpec{firmware.TestApp(), firmware.Arduplane()} {
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			f.Fatal(err)
		}
		pre, err := core.Preprocess(img.ELF)
		if err != nil {
			f.Fatal(err)
		}
		apps = append(apps, pre)
	}
	// subjects caches each (app, base mutation) pair's bases.
	type key struct {
		app int
		mut uint8
	}
	subjects := make(map[key]*subject)

	const mutations = 6
	for mutation := uint64(0); mutation < 4*mutations; mutation++ {
		f.Add(uint8(0), int64(7), mutation, uint8(0))
	}
	for mutation := uint64(0); mutation < mutations; mutation++ {
		f.Add(uint8(1), int64(7), mutation, uint8(0))
	}
	for kind := uint8(1); kind < uint8(baseMutations); kind++ {
		f.Add(uint8(0), int64(7), uint64(0), kind)
	}
	// ArduPlane with the rcall at 0x3F8 onto the target word of the call
	// at 0x436 (arduplaneOperandBase), at seed 4.
	for n, s := range baseSites(apps[1], mutOperandCall) {
		if s.at == 0x3F8 && n < 256/int(baseMutations) {
			f.Add(uint8(1), int64(4), uint64(0), uint8(n)*uint8(baseMutations)+uint8(mutOperandCall))
		}
	}
	f.Fuzz(func(t *testing.T, app uint8, seed int64, mutation uint64, baseMut uint8) {
		k := key{int(app) % len(apps), baseMut}
		if k.mut%uint8(baseMutations) == 0 {
			k.mut = 0
		}
		sub := subjects[k]
		if sub == nil {
			pre := apps[k.app]
			if k.mut != 0 {
				if pre = mutateBase(pre, baseMutation(k.mut%uint8(baseMutations)), int(k.mut/uint8(baseMutations))); pre == nil {
					t.Skip("no site for the base mutation")
				}
			}
			sub = newSubject(pre)
			subjects[k] = sub
		}
		pre := sub.pre
		r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(seed)), len(pre.Blocks)))
		if err != nil {
			if k.mut != 0 {
				t.Skip("the randomizer refuses the mutated base:", err)
			}
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(mutation / mutations)))
		switch mutation % mutations {
		case 1:
			// Flips above the shuffled region hit data; below it, code.
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
			requireContract(t, base, r, "mutated randomization")
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
	requireSameReport(t, refVerify(pre, r, opts), NewBase(pre, opts).Verify(r), "arduplane")
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
