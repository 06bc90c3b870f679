package vsa

import "testing"

// TestFlashBytesBelowRegionEndAreTop pins the rule that lets a base
// analysis translate to any permutation the patch diff passes: every
// flash byte below the region end — the fixed region, whose jmp words
// are patched too, as well as the shuffled code — reads as top, and so
// do a patched pointer slot and bytes past the image; any other data
// byte reads as its value, which the diff proves unchanged.
func TestFlashBytesBelowRegionEndAreTop(t *testing.T) {
	img := make([]byte, 0x300)
	for i := range img {
		img[i] = byte(i)
	}
	patched := newBitset(len(img))
	patched.set(0x280)
	patched.set(0x281)
	c := Ctx{Img: img, RegionStart: 0x100, RegionEnd: 0x200, patched: patched}
	for _, off := range []uint32{0, 0xFF, 0x100, 0x1FF, 0x280, 0x281, 0x300} {
		if got := c.flashByte(off); !got.IsTop() {
			t.Errorf("flash byte 0x%X reads as %v, want top", off, got.Values())
		}
	}
	for _, off := range []uint32{0x200, 0x27F, 0x282, 0x2FF} {
		if got := c.flashByte(off); !got.Equal(Const(img[off])) {
			t.Errorf("flash byte 0x%X reads as %v, want its value 0x%02X", off, got.Values(), img[off])
		}
	}
}
