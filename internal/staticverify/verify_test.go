package staticverify_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"mavr/internal/avr"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/staticverify"
)

func genPre(t *testing.T) *core.Preprocessed {
	t.Helper()
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	return pre
}

func randomize(t *testing.T, pre *core.Preprocessed, seed int64) *core.Randomized {
	t.Helper()
	r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(seed)), len(pre.Blocks)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A clean randomization must verify with zero errors across seeds: the
// rewriter's output is provably patch-complete.
func TestCleanRandomizationPasses(t *testing.T) {
	pre := genPre(t)
	for seed := int64(1); seed <= 4; seed++ {
		r := randomize(t, pre, seed)
		rep := staticverify.Verify(pre, r, staticverify.DefaultOptions())
		if !rep.OK() {
			for _, f := range rep.Findings {
				if f.Severity == staticverify.SevError {
					t.Errorf("seed %d: unexpected error finding: %s", seed, f)
				}
			}
		}
		if rep.Diff.TransfersChecked == 0 || rep.Diff.VectorsChecked == 0 || rep.Diff.PointersChecked == 0 {
			t.Fatalf("seed %d: diff proved nothing: %+v", seed, rep.Diff)
		}
		if rep.Diff.PointersChecked != len(pre.PtrOffsets) {
			t.Fatalf("seed %d: checked %d pointers, want %d", seed, rep.Diff.PointersChecked, len(pre.PtrOffsets))
		}
		if rep.CFG.Funcs != len(pre.Blocks) {
			t.Fatalf("seed %d: CFG has %d funcs, want %d", seed, rep.CFG.Funcs, len(pre.Blocks))
		}
	}
}

// The identity permutation moves nothing; verifying an image against
// itself must report zero findings, the diff's included.
func TestIdentityDiffZeroFindings(t *testing.T) {
	pre := genPre(t)
	ident := make([]int, len(pre.Blocks))
	for i := range ident {
		ident[i] = i
	}
	r, err := core.Randomize(pre, ident)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Image, pre.Image) {
		t.Fatal("identity permutation changed the image")
	}
	rep := staticverify.Verify(pre, r, staticverify.Options{})
	if len(rep.Findings) != 0 {
		t.Fatalf("identity diff produced findings: %v", rep.Findings)
	}
	if rep.Diff.TransfersChecked == 0 {
		t.Fatal("identity diff checked no transfers")
	}
}

// A deliberately skipped patch — one call left aiming at the old
// address — must be flagged as an error.
func TestSkippedPatchFlagged(t *testing.T) {
	pre := genPre(t)
	r := randomize(t, pre, 2)

	// Pick a patched transfer inside the shuffled region (the first few
	// are vector entries).
	var addr uint32
	n := 0
	for {
		a, err := staticverify.RevertPatch(pre, r, n)
		if err != nil {
			t.Fatal("no patched transfer inside the shuffled region")
		}
		if a >= pre.RegionStart {
			addr = a
			break
		}
		// Undo the trial revert by re-randomizing and trying the next.
		r = randomize(t, pre, 2)
		n++
	}

	rep := staticverify.Verify(pre, r, staticverify.Options{})
	if rep.OK() {
		t.Fatal("verifier passed an image with an unpatched transfer")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == staticverify.KindUnpatchedTransfer && f.Addr == addr {
			found = true
		}
	}
	if !found {
		t.Fatalf("no unpatched-transfer finding at 0x%X; findings: %v", addr, rep.Findings)
	}
}

// A vector-table entry left pointing into the pre-randomization layout
// must be flagged with the vector kind: it fires on the next interrupt.
func TestUnpatchedVectorFlagged(t *testing.T) {
	pre := genPre(t)
	r := randomize(t, pre, 3)

	// The reset vector (vector 0) targets __init, which certainly moved.
	in := avr.DecodeAt(pre.Image, 0)
	if in.Op != avr.OpJMP {
		t.Fatalf("vector 0 is %s, want jmp", in.Op)
	}
	rin := avr.DecodeAt(r.Image, 0)
	if rin.Target == in.Target {
		t.Skip("reset target did not move under this seed")
	}
	addr, err := staticverify.RevertPatch(pre, r, 0)
	if err != nil || addr != 0 {
		t.Fatalf("RevertPatch(0) = 0x%X, %v; want the reset vector", addr, err)
	}

	rep := staticverify.Verify(pre, r, staticverify.Options{})
	found := false
	for _, f := range rep.Findings {
		if f.Kind == staticverify.KindUnpatchedVector && f.Addr == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no unpatched-vector finding; findings: %v", rep.Findings)
	}
}

// An unreverted data-section function pointer must be flagged.
func TestUnpatchedPointerFlagged(t *testing.T) {
	pre := genPre(t)
	r := randomize(t, pre, 4)
	off, err := staticverify.RevertPointerPatch(pre, r, 0)
	if err != nil {
		t.Skip("no pointer moved under this seed")
	}
	rep := staticverify.Verify(pre, r, staticverify.Options{})
	found := false
	for _, f := range rep.Findings {
		if f.Kind == staticverify.KindUnpatchedPointer && f.Addr == off {
			found = true
		}
	}
	if !found {
		t.Fatalf("no unpatched-pointer finding at 0x%X; findings: %v", off, rep.Findings)
	}
}

// A function containing spm is self-modifying: the verifier must report
// it unverifiable, never silently pass it.
func TestSPMRegionUnverifiable(t *testing.T) {
	pre := genPre(t)
	r := randomize(t, pre, 5)

	// Replace a one-word straight-line instruction inside some block
	// with spm, in both images at corresponding locations, so the
	// streams still match and only the spm rule can fire.
	const spmWord = 0x95E8
	remapped := func(old uint32) uint32 {
		i := pre.BlockIndex(old)
		return r.NewStart[i] + (old - pre.Blocks[i].Start)
	}
	var spmAddr uint32
	b := pre.Blocks[len(pre.Blocks)/2]
	for pc := b.Start / 2; pc < b.End()/2; {
		in := avr.DecodeAt(pre.Image, pc)
		if in.Words == 1 && !in.IsCallOrJump() &&
			in.Op != avr.OpBRBS && in.Op != avr.OpBRBC && in.Op != avr.OpRET {
			old := pc * 2
			nw := remapped(old)
			pre.Image[old], pre.Image[old+1] = byte(spmWord&0xFF), byte(spmWord>>8)
			r.Image[nw], r.Image[nw+1] = byte(spmWord&0xFF), byte(spmWord>>8)
			spmAddr = nw
			break
		}
		pc += uint32(in.Words)
	}
	if spmAddr == 0 {
		t.Fatal("found no instruction to replace with spm")
	}

	rep := staticverify.Verify(pre, r, staticverify.Options{})
	if rep.OK() {
		t.Fatal("verifier passed a self-modifying image")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == staticverify.KindUnverifiableSPM && f.Addr == spmAddr {
			found = true
		}
	}
	if !found {
		t.Fatalf("no spm-unverifiable finding at 0x%X; findings: %v", spmAddr, rep.Findings)
	}
}

// Corrupting a non-transfer instruction must surface as an
// opcode-mismatch, not silently pass or panic.
func TestStreamDivergenceFlagged(t *testing.T) {
	pre := genPre(t)
	r := randomize(t, pre, 6)
	// Flip a bit in the middle of some relocated block.
	i := len(pre.Blocks) / 3
	off := r.NewStart[i] + pre.Blocks[i].Size/2&^1
	r.Image[off] ^= 0x10
	rep := staticverify.Verify(pre, r, staticverify.Options{})
	if rep.OK() {
		t.Fatal("verifier passed a corrupted image")
	}
}

// The gadget audit: under the identity permutation every gadget is
// stable; under a real permutation the in-region survivors shrink to
// (at most) the fixed points of the permutation.
func TestGadgetAudit(t *testing.T) {
	pre := genPre(t)
	ident := make([]int, len(pre.Blocks))
	for i := range ident {
		ident[i] = i
	}
	rid, err := core.Randomize(pre, ident)
	if err != nil {
		t.Fatal(err)
	}
	audit, findings := staticverify.AuditGadgets(pre, rid, 24)
	if audit.Orig == 0 || audit.Stable != audit.Orig {
		t.Fatalf("identity: %d/%d gadgets stable, want all", audit.Stable, audit.Orig)
	}
	if len(findings) == 0 {
		t.Fatal("identity: no stable-gadget findings")
	}

	r := randomize(t, pre, 7)
	moved, _ := staticverify.AuditGadgets(pre, r, 24)
	if moved.StableInRegion >= audit.StableInRegion/2 {
		t.Fatalf("randomization left %d of %d in-region gadgets stable", moved.StableInRegion, audit.StableInRegion)
	}
}

// Reports must round-trip through the JSON reporter.
func TestReportJSON(t *testing.T) {
	pre := genPre(t)
	r := randomize(t, pre, 8)
	rep := staticverify.Verify(pre, r, staticverify.DefaultOptions())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"blocks", "cfg", "diff", "findings"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("JSON report missing %q: %s", key, buf.String())
		}
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(text.Bytes(), []byte("diff:")) {
		t.Fatalf("text report malformed: %s", text.String())
	}
}

// The report is a pure function of its inputs: two verifications of
// the same outcome with every analysis enabled render byte-identical
// JSON, and the findings come out in the documented total order
// (severity, then address, then kind). This is the regression gate for
// report determinism — map iteration or unsorted appends anywhere in
// the pipeline break it.
func TestReportDeterministicAndSorted(t *testing.T) {
	pre := genPre(t)
	r := randomize(t, pre, 3)
	opts := staticverify.DefaultOptions()
	opts.VSA = true

	render := func() []byte {
		var buf bytes.Buffer
		if err := staticverify.Verify(pre, r, opts).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := render(), render()
	if !bytes.Equal(first, second) {
		t.Fatal("two verifications of the same outcome rendered different reports")
	}

	// A clean testapp report can be finding-free; revert two patches so
	// the order check sees a mixed-severity list.
	r2 := randomize(t, pre, 3)
	if _, err := staticverify.RevertPatch(pre, r2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := staticverify.RevertPointerPatch(pre, r2, 0); err != nil {
		t.Fatal(err)
	}
	rep := staticverify.Verify(pre, r2, opts)
	if len(rep.Findings) < 2 {
		t.Fatalf("fault injection produced %d findings, want several", len(rep.Findings))
	}
	rank := map[staticverify.Severity]int{
		staticverify.SevError: 0, staticverify.SevWarn: 1, staticverify.SevInfo: 2,
	}
	for i := 1; i < len(rep.Findings); i++ {
		a, b := rep.Findings[i-1], rep.Findings[i]
		switch {
		case rank[a.Severity] < rank[b.Severity]:
		case rank[a.Severity] > rank[b.Severity]:
			t.Fatalf("finding %d (%s) sorted after less severe %s", i, b, a)
		case a.Addr > b.Addr:
			t.Fatalf("findings %d,%d out of address order: 0x%X after 0x%X", i-1, i, b.Addr, a.Addr)
		case a.Addr == b.Addr && a.Kind > b.Kind:
			t.Fatalf("findings %d,%d out of kind order at 0x%X: %s after %s", i-1, i, a.Addr, b.Kind, a.Kind)
		}
	}
}

// A layout whose blocks do not tile the region is one error finding,
// not a crash or a pass: walked anyway, a NewStart one entry short
// indexes past its end, and a block relocated to 0xFFFFFFF0 wraps CFG
// recovery's extent arithmetic into a ~2^31-instruction allocation.
// A block shifted past RegionEnd, over data bytes the diff does not
// compare, with every transfer and pointer to it patched, diffs clean
// and would reuse the base's CFG. Compare mode takes NewStart from raw
// ELF symbol values, so all three come from outside the program. No
// diff or CFG walk may run on such a layout, and the fault injectors
// refuse it with an error.
func TestMalformedLayoutIsOneFinding(t *testing.T) {
	pre := genPre(t)
	vsaOpts := staticverify.DefaultOptions()
	vsaOpts.VSA = true
	cases := []struct {
		name   string
		layout func() *core.Randomized
	}{
		{"NewStart one short", func() *core.Randomized {
			r := randomize(t, pre, 7)
			r.NewStart = r.NewStart[:len(r.NewStart)-1]
			return r
		}},
		{"block start wraps", func() *core.Randomized {
			r := randomize(t, pre, 7)
			r.NewStart[len(r.NewStart)/2] = 0xFFFFFFF0
			return r
		}},
		{"two blocks at one start", func() *core.Randomized {
			r := randomize(t, pre, 7)
			r.NewStart[1] = r.NewStart[0]
			return r
		}},
		{"block shifted by a word", func() *core.Randomized {
			r := randomize(t, pre, 7)
			r.NewStart[len(r.NewStart)/2] += 2
			return r
		}},
		{"block shifted past the region end", func() *core.Randomized { return pastRegionEnd(t, pre) }},
	}
	for _, tc := range cases {
		for _, opts := range []staticverify.Options{{}, vsaOpts} {
			r := tc.layout()
			for _, rep := range []*staticverify.Report{
				staticverify.Verify(pre, r, opts),
				staticverify.NewBase(pre, opts).Verify(r),
			} {
				if rep.Errors() != 1 {
					t.Fatalf("%s: %d error findings, want 1: %v", tc.name, rep.Errors(), rep.Findings)
				}
				if rep.Findings[0].Kind != staticverify.KindBadLayout {
					t.Fatalf("%s: finding %s, want %s", tc.name, rep.Findings[0], staticverify.KindBadLayout)
				}
				if rep.Diff != (staticverify.DiffStats{}) || rep.CFG != (staticverify.CFGStats{}) || rep.VSA != nil {
					t.Fatalf("%s: a walk ran on a malformed layout: diff %+v, cfg %+v", tc.name, rep.Diff, rep.CFG)
				}
			}
			if _, err := staticverify.RevertPatch(pre, r, 0); err == nil {
				t.Fatalf("%s: RevertPatch accepted the layout", tc.name)
			}
			if _, err := staticverify.RevertPointerPatch(pre, r, 0); err == nil {
				t.Fatalf("%s: RevertPointerPatch accepted the layout", tc.name)
			}
		}
	}
}

// pastRegionEnd lays out pre with its smallest block moved past
// RegionEnd, over the first data bytes, every transfer and pointer to
// it patched: the randomizer lays out a copy of pre whose region has
// one more block, of nops over those bytes, the size of the moved one,
// in its place. Every other block keeps its address. The copy drops
// the pointer-table list, which core rejects inside the grown region;
// in the test application the covered bytes hold only table entries
// that point at fixed code, which nothing patches.
func pastRegionEnd(t *testing.T, pre *core.Preprocessed) *core.Randomized {
	t.Helper()
	n, x := len(pre.Blocks), 0
	for i, b := range pre.Blocks {
		if b.Size < pre.Blocks[x].Size {
			x = i
		}
	}
	size := pre.Blocks[x].Size
	ext := *pre
	ext.Image = append([]byte(nil), pre.Image...)
	clear(ext.Image[pre.RegionEnd : pre.RegionEnd+size])
	ext.Blocks = append(append([]core.Block(nil), pre.Blocks...),
		core.Block{Name: "pad", Start: pre.RegionEnd, Size: size})
	ext.RegionEnd += size
	ext.PtrTables = nil
	perm := make([]int, n+1)
	for i := range perm {
		perm[i] = i
	}
	perm[x], perm[n] = n, x
	r, err := core.Randomize(&ext, perm)
	if err != nil {
		t.Fatal(err)
	}
	if r.NewStart[x] != pre.RegionEnd {
		t.Fatalf("block placed at 0x%X, want the region end 0x%X", r.NewStart[x], pre.RegionEnd)
	}
	r.NewStart = r.NewStart[:n]
	return r
}
