package staticverify

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mavr/internal/avr"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/gadget"
)

// TestCensusMatchesFullScan holds the incremental gadget census to the
// full-scan reference, auditGadgetsAgainst in reference_test.go: the
// same GadgetAudit and the same findings, for the test application and
// the three paper profiles, under the identity permutation and seeds
// 1–10, at five gadget windows, with demotion on and off, on the clean
// image, with bytes flipped anywhere, with a data-tail byte flipped,
// with a ret word planted at a random word or over the operand word of
// a jmp/call, with a nop over the first word of a window of every ret,
// under a layout that claims a block at address 0, and under one that
// places one block too few.
func TestCensusMatchesFullScan(t *testing.T) {
	specs := append([]firmware.AppSpec{firmware.TestApp()}, firmware.Profiles()...)
	mutations := []struct {
		name   string
		mutate func(pre *core.Preprocessed, r *core.Randomized, operands []uint32, rng *rand.Rand)
	}{
		{"clean", func(*core.Preprocessed, *core.Randomized, []uint32, *rand.Rand) {}},
		{"byte flips", func(_ *core.Preprocessed, r *core.Randomized, _ []uint32, rng *rand.Rand) {
			for i := rng.Intn(4); i >= 0; i-- {
				r.Image[rng.Intn(len(r.Image))] ^= byte(1 + rng.Intn(255))
			}
		}},
		{"tail flip", func(pre *core.Preprocessed, r *core.Randomized, _ []uint32, rng *rand.Rand) {
			r.Image[int(pre.RegionEnd)+rng.Intn(len(r.Image)-int(pre.RegionEnd))] ^= byte(1 + rng.Intn(255))
		}},
		{"ret planted", func(_ *core.Preprocessed, r *core.Randomized, _ []uint32, rng *rand.Rand) {
			plantRet(r.Image, uint32(rng.Intn(len(r.Image)/2)))
		}},
		{"ret over an operand", func(_ *core.Preprocessed, r *core.Randomized, operands []uint32, rng *rand.Rand) {
			plantRet(r.Image, operands[rng.Intn(len(operands))])
		}},
		{"window edges", func(_ *core.Preprocessed, r *core.Randomized, _ []uint32, rng *rand.Rand) {
			// A nop over the first word of some window of every ret.
			words := len(r.Image) / 2
			for w := gadget.NextRet(r.Image, 40, words); w < words; w = gadget.NextRet(r.Image, w+1, words) {
				edge := w - windows[rng.Intn(len(windows))]
				r.Image[2*edge], r.Image[2*edge+1] = 0, 0
			}
		}},
		{"bad layout", func(pre *core.Preprocessed, r *core.Randomized, _ []uint32, _ *rand.Rand) {
			// The block whose first ret comes soonest claimed at address
			// 0, over a ret planted where that one would land: a ret in
			// the first window, laid out over a base ret past it.
			best, off := 0, ^uint32(0)
			for i, b := range pre.Blocks {
				if w := gadget.NextRet(pre.Image, int(b.Start/2), int(b.End()/2)); w < int(b.End()/2) && uint32(w)-b.Start/2 < off {
					best, off = i, uint32(w)-b.Start/2
				}
			}
			r.NewStart = slices.Clone(r.NewStart)
			r.NewStart[best] = 0
			plantRet(r.Image, off)
		}},
		{"short layout", func(_ *core.Preprocessed, r *core.Randomized, _ []uint32, _ *rand.Rand) {
			r.NewStart = r.NewStart[:len(r.NewStart)-1]
		}},
	}
	for _, spec := range specs {
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := core.Preprocess(img.ELF)
		if err != nil {
			t.Fatal(err)
		}
		type scan struct {
			maxWords int
			origGs   []*gadget.Gadget
			origAt   map[uint32]*gadget.Gadget
			census   *gadgetCensus
		}
		var scans []scan
		for _, mw := range windows {
			origGs := gadget.Scan(pre.Image, mw)
			scans = append(scans, scan{mw, origGs, gadgetIndex(origGs), newGadgetCensus(pre.Image, mw)})
		}
		identity := make([]int, len(pre.Blocks))
		for i := range identity {
			identity[i] = i
		}
		for seed := int64(0); seed <= 10; seed++ {
			perm := identity
			if seed > 0 {
				perm = core.Permutation(rand.New(rand.NewSource(seed)), len(pre.Blocks))
			}
			clean, err := core.Randomize(pre, perm)
			if err != nil {
				t.Fatal(err)
			}
			operands := operandWords(pre, clean)
			for mi, m := range mutations {
				r := *clean
				r.Image = append([]byte(nil), clean.Image...)
				m.mutate(pre, &r, operands, rand.New(rand.NewSource(seed*100+int64(mi))))
				for _, sc := range scans {
					for _, demote := range []bool{false, true} {
						wantAudit, wantFs := auditGadgetsAgainst(pre, &r, sc.maxWords, sc.origGs, sc.origAt, demote)
						audit, fs := sc.census.audit(pre, &r, demote)
						if audit != wantAudit || !reflect.DeepEqual(fs, wantFs) {
							t.Fatalf("%s seed %d, %s, window %d, demote %v: census %+v %v; full scan %+v %v",
								spec.Name, seed, m.name, sc.maxWords, demote, audit, fs, wantAudit, wantFs)
						}
					}
				}
			}
		}
	}
}

// windows are the gadget windows the census test covers.
var windows = []int{1, 2, 5, 24, 40}

// plantRet writes a ret instruction over word w.
func plantRet(img []byte, w uint32) {
	img[2*w], img[2*w+1] = 0x08, 0x95
}

// operandWords lists the word addresses, in the randomized image, of
// the operand word of every jmp and call in the patch index.
func operandWords(pre *core.Preprocessed, r *core.Randomized) []uint32 {
	var ws []uint32
	for ri, reg := range patchIndex(pre, nil) {
		newW := reg.oldStart / 2
		if ri > 0 {
			newW = r.NewStart[ri-1] / 2
		}
		for _, s := range reg.sites {
			if s.op == avr.OpJMP || s.op == avr.OpCALL {
				ws = append(ws, newW+s.pc+1)
			}
		}
	}
	return ws
}

// TestSortedStarts checks the relocated-block order the census and the
// translated analysis walk: ascending starts whether Perm lists the
// layout, is missing, names a block twice or out of range, or
// disagrees with NewStart.
func TestSortedStarts(t *testing.T) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(3)), len(pre.Blocks)))
	if err != nil {
		t.Fatal(err)
	}
	n := len(pre.Blocks)
	for _, tc := range []struct {
		name   string
		mutate func(r *core.Randomized)
	}{
		{"layout order", func(*core.Randomized) {}},
		{"no perm", func(r *core.Randomized) { r.Perm = nil }},
		{"block named twice", func(r *core.Randomized) { r.Perm[1] = r.Perm[0] }},
		{"block out of range", func(r *core.Randomized) { r.Perm[n-1] = n }},
		{"negative block", func(r *core.Randomized) { r.Perm[0] = -1 }},
		{"starts swapped", func(r *core.Randomized) {
			a, b := r.Perm[0], r.Perm[n-1]
			r.NewStart[a], r.NewStart[b] = r.NewStart[b], r.NewStart[a]
		}},
		{"short layout", func(r *core.Randomized) { r.NewStart = r.NewStart[:n-1] }},
	} {
		r := *clean
		r.Perm, r.NewStart = slices.Clone(clean.Perm), slices.Clone(clean.NewStart)
		tc.mutate(&r)
		var want []uint64
		for i, s := range r.NewStart {
			want = append(want, uint64(s)<<32|uint64(i))
		}
		slices.Sort(want)
		if got := sortedStarts(pre, &r); !slices.Equal(got, want) {
			t.Fatalf("%s: sortedStarts = %x, want %x", tc.name, got, want)
		}
	}
}
