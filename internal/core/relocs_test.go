package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mavr/internal/core"
	"mavr/internal/firmware"
)

// checkReference randomizes p under perm with the table-driven
// Randomize and with the reference walk, and fails on any difference:
// image, layout, patch counts, or error text.
func checkReference(t testing.TB, p *core.Preprocessed, perm []int) error {
	t.Helper()
	got, err := core.Randomize(p, perm)
	want, wantErr := core.ReferenceRandomize(p, perm)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("Randomize error %v, reference %v", err, wantErr)
	}
	if err != nil {
		return err
	}
	switch {
	case !bytes.Equal(got.Image, want.Image):
		t.Fatal("image differs from the reference")
	case !slices.Equal(got.NewStart, want.NewStart) || !slices.Equal(got.Perm, want.Perm):
		t.Fatal("layout differs from the reference")
	case got.PatchedTransfers != want.PatchedTransfers || got.PatchedPointers != want.PatchedPointers:
		t.Fatalf("patched %d transfers, %d pointers; reference %d, %d",
			got.PatchedTransfers, got.PatchedPointers, want.PatchedTransfers, want.PatchedPointers)
	}
	return nil
}

// TestRandomizeMatchesReference holds the table-driven randomizer to
// the per-word reference walk on the test application (both
// toolchain modes: the stock build fails with relative-range errors)
// and the three paper profiles, 50 seeded permutations each.
func TestRandomizeMatchesReference(t *testing.T) {
	type base struct {
		spec firmware.AppSpec
		mode firmware.ToolchainMode
	}
	bases := []base{{firmware.TestApp(), firmware.ModeMAVR}, {firmware.TestApp(), firmware.ModeStock}}
	for _, spec := range firmware.Profiles() {
		bases = append(bases, base{spec, firmware.ModeMAVR})
	}
	for _, b := range bases {
		img, err := firmware.Generate(b.spec, b.mode)
		if err != nil {
			t.Fatal(err)
		}
		p := preprocess(t, img)
		rng := rand.New(rand.NewSource(1))
		failed := 0
		for i := 0; i < 50; i++ {
			if checkReference(t, p, core.Permutation(rng, len(p.Blocks))) != nil {
				failed++
			}
		}
		if wantFail := b.mode == firmware.ModeStock; (failed > 0) != wantFail {
			t.Errorf("%s (mode %v): %d of 50 permutations failed", b.spec.Name, b.mode, failed)
		}
	}
}

// TestRandomizeMatchesReferenceAfterImageEdit flips one byte of the
// image after Preprocess, in the fixed head or inside a block, so the
// cached relocation table no longer applies: a flip may desynchronize
// the walk (the error names the block's new position) or turn one
// instruction into another, and either way the result must be the
// reference's.
func TestRandomizeMatchesReferenceAfterImageEdit(t *testing.T) {
	p := preprocess(t, genImage(t, firmware.ModeMAVR))
	orig := append([]byte(nil), p.Image...)
	rng := rand.New(rand.NewSource(2))
	failed := 0
	for i := 0; i < 300; i++ {
		off := rng.Intn(int(p.RegionEnd))
		p.Image[off] ^= byte(1 + rng.Intn(255))
		if checkReference(t, p, core.Permutation(rng, len(p.Blocks))) != nil {
			failed++
		}
		copy(p.Image, orig)
	}
	if failed == 0 || failed == 300 {
		t.Errorf("%d of 300 edited images failed to randomize; want some of each outcome", failed)
	}
	// Restored, the handle randomizes as before the edits.
	checkReference(t, p, identity(len(p.Blocks)))
}

// randomHandle builds a small synthetic handle: a fixed head, blocks
// of random sizes and function pointers in the tail, over words dense
// in jmp/call/rjmp/rcall/brbs/brbc with targets in the image. Each
// handle also gets, with probability 1/4 each: random words (often
// invalid), rjmp/rcall displacements over the full ±2048-word range,
// no branches (whose ±64-word range few permutations keep), and odd
// block sizes that misalign the blocks after them.
func randomHandle(rng *rand.Rand) *core.Preprocessed {
	words := 32 + rng.Intn(480)
	p := &core.Preprocessed{
		Image:       make([]byte, 2*words),
		RegionStart: uint32(2 * rng.Intn(16)),
		RegionEnd:   uint32(2 * (words - rng.Intn(8))),
	}
	junk, wild, branches, odd := rng.Intn(4) == 0, rng.Intn(4) == 0, rng.Intn(4) != 0, rng.Intn(4) == 0
	for at := p.RegionStart; at < p.RegionEnd; {
		size := min(uint32(2+2*rng.Intn(24)), p.RegionEnd-at)
		if odd && rng.Intn(4) == 0 {
			size--
		}
		p.Blocks = append(p.Blocks, core.Block{Name: fmt.Sprintf("f%d", len(p.Blocks)), Start: at, Size: size})
		at += size
	}
	put := func(w int, v uint16) { p.Image[2*w], p.Image[2*w+1] = byte(v), byte(v>>8) }
	for w := 0; w < words; w++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			if branches && rng.Intn(2) == 0 {
				k := max(rng.Intn(128)-64, -w-1)
				put(w, 0xF000|uint16(rng.Intn(2))<<10|uint16(k&0x7F)<<3|uint16(rng.Intn(8))) // brbs/brbc
				break
			}
			op := uint16(0xC000) // rjmp
			if rng.Intn(2) == 0 {
				op = 0xD000 // rcall
			}
			k := rng.Intn(words) - w - 1
			if wild && rng.Intn(8) == 0 {
				k = rng.Intn(4096) - 2048
			}
			put(w, op|uint16(k)&0x0FFF)
		case 4:
			// A jmp/call straddling two buffers desynchronizes both.
			if i := p.BlockIndex(uint32(2*w + 2)); w+1 < words && (i < 0 || p.Blocks[i].Start != uint32(2*w+2)) {
				put(w, 0x940C|uint16(rng.Intn(2))<<1)
				w++
				put(w, uint16(rng.Intn(words)))
			}
		case 5:
			if junk {
				put(w, uint16(rng.Intn(0x10000)))
				break
			}
			fallthrough
		default:
			put(w, 0xE000|uint16(rng.Intn(0x1000))) // ldi
		}
	}
	for off := p.RegionEnd; off+2 <= uint32(len(p.Image)); off += 2 {
		if rng.Intn(2) == 0 {
			p.PtrOffsets = append(p.PtrOffsets, off)
			put(int(off/2), uint16(rng.Intn(words)))
		}
	}
	return p
}

// TestRandomizeMatchesReferenceOnRandomImages compares the two
// randomizers on synthetic handles that reach every patching outcome:
// success (a quarter under the identity, where every displacement
// survives), relative and branch range errors, and desynchronized
// buffers. Each handle runs as built, on a table built for the call,
// and after a WriteTo/LoadImage round trip, on the cached table.
func TestRandomizeMatchesReferenceOnRandomImages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ok, relRange, branchRange, desync int
	for iter := 0; iter < 2000; iter++ {
		p := randomHandle(rng)
		perm := core.Permutation(rng, len(p.Blocks))
		if iter%4 == 0 {
			perm = identity(len(p.Blocks))
		}
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.LoadImage(buf.Bytes())
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		checkReference(t, loaded, perm)
		switch err := checkReference(t, p, perm); {
		case err == nil:
			ok++
		case errors.Is(err, core.ErrRelativeRange):
			relRange++
		case errors.Is(err, core.ErrBranchRange):
			branchRange++
		case errors.Is(err, core.ErrInstrStreamDesync):
			desync++
		default:
			t.Fatalf("iteration %d: unexpected error %v", iter, err)
		}
	}
	if ok == 0 || relRange == 0 || branchRange == 0 || desync == 0 {
		t.Errorf("outcomes: %d ok, %d relative range, %d branch range, %d desync; want each", ok, relRange, branchRange, desync)
	}
}
