package core

import (
	"fmt"
	"testing"

	"mavr/internal/avr"
	"mavr/internal/firmware"
)

// TestRelocTableFollowsHandle: Randomize uses the table Preprocess
// cached exactly while the handle's image and blocks are the ones it
// was built from.
func TestRelocTableFollowsHandle(t *testing.T) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Preprocess(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	if p.relocs == nil || p.relocsFor() != p.relocs {
		t.Fatal("a fresh handle does not use its cached table")
	}
	q := *p
	q.Image = append([]byte(nil), p.Image...)
	if q.relocsFor() != p.relocs {
		t.Error("a copy with equal contents does not use the cached table")
	}
	q.Image[q.RegionStart+1] ^= 0x80
	if q.relocsFor() == p.relocs {
		t.Error("an edited image still uses the cached table")
	}
	q.Image = p.Image
	q.Blocks = append([]Block(nil), p.Blocks...)
	q.Blocks[0].Name += "'"
	if q.relocsFor() == p.relocs {
		t.Error("edited blocks still use the cached table")
	}
}

// ReferenceRandomize is the randomizer before the relocation table: the
// same streaming order, with every buffer patched by a full instruction
// walk (patchCode). The table-driven Randomize must match it exactly —
// image, layout, patch counts and error text.
var ReferenceRandomize = referenceRandomize

func referenceRandomize(p *Preprocessed, perm []int) (*Randomized, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := len(p.Blocks)
	if len(perm) != n {
		return nil, ErrBadPermutation
	}
	r := &Randomized{
		Perm:     append([]int(nil), perm...),
		NewStart: make([]uint32, n),
	}
	const unplaced = ^uint32(0)
	for i := range r.NewStart {
		r.NewStart[i] = unplaced
	}
	cursor := p.RegionStart
	for _, orig := range perm {
		if orig < 0 || orig >= n || r.NewStart[orig] != unplaced {
			return nil, ErrBadPermutation
		}
		r.NewStart[orig] = cursor
		cursor += p.Blocks[orig].Size
	}
	remap := func(old uint32) uint32 {
		i := p.BlockIndex(old)
		if i < 0 {
			return old
		}
		return r.NewStart[i] + (old - p.Blocks[i].Start)
	}

	out := make([]byte, 0, len(p.Image))
	head := append([]byte(nil), p.Image[:p.RegionStart]...)
	if err := patchCode(head, 0, 0, p.RegionStart, remap, r); err != nil {
		return nil, err
	}
	out = append(out, head...)
	for _, orig := range perm {
		b := p.Blocks[orig]
		buf := append([]byte(nil), p.Image[b.Start:b.End()]...)
		if err := patchCode(buf, r.NewStart[orig], b.Start, b.End(), remap, r); err != nil {
			return nil, fmt.Errorf("block %q: %w", b.Name, err)
		}
		out = append(out, buf...)
	}
	tail := append([]byte(nil), p.Image[p.RegionEnd:]...)
	for _, off := range p.PtrOffsets {
		i := off - p.RegionEnd
		v := uint32(tail[i]) | uint32(tail[i+1])<<8
		nw := remap(v*2) / 2
		if nw > 0xFFFF {
			return nil, fmt.Errorf("%w: 0x%X", ErrPointerOverflow, nw*2)
		}
		if nw != v {
			tail[i] = byte(nw)
			tail[i+1] = byte(nw >> 8)
			r.PatchedPointers++
		}
	}
	r.Image = append(out, tail...)
	return r, nil
}

// patchCode walks the instruction stream of one relocated (or fixed)
// code buffer, rewriting the flash targets of jmp/call and re-encoding
// rjmp/rcall and conditional branches whose absolute targets moved
// relative to the instruction. Intra-buffer relative transfers move
// with the block and need no change.
//
// buf holds the code that will live at byte address newBase in the
// output image and lived at [oldStart, oldEnd) in the original. The
// buffer-local formulation is what lets the master processor patch one
// block at a time while streaming (§VI-B3).
func patchCode(buf []byte, newBase, oldStart, oldEnd uint32, remap func(uint32) uint32, r *Randomized) error {
	endW := uint32(len(buf) / 2)
	baseW := newBase / 2
	oldBaseW := oldStart / 2
	for pc := uint32(0); pc < endW; {
		in := avr.DecodeAt(buf, pc)
		if in.Op == avr.OpInvalid || pc+uint32(in.Words) > endW {
			return fmt.Errorf("%w: invalid opcode at byte 0x%X", ErrInstrStreamDesync, (baseW+pc)*2)
		}
		oldPC := oldBaseW + pc
		switch in.Op {
		case avr.OpJMP, avr.OpCALL:
			oldT := in.Target * 2
			newT := remap(oldT)
			if newT != oldT {
				encodeLong(buf, pc, in.Op, newT/2)
				r.PatchedTransfers++
			}
		case avr.OpRJMP, avr.OpRCALL:
			oldT := uint32(int64(oldPC)+1+int64(in.K)) * 2
			if oldT < oldStart || oldT >= oldEnd {
				newT := remap(oldT)
				k := int64(newT/2) - int64(baseW+pc) - 1
				if k < -2048 || k > 2047 {
					return fmt.Errorf("%w: at byte 0x%X", ErrRelativeRange, (baseW+pc)*2)
				}
				base := uint16(0xC000)
				if in.Op == avr.OpRCALL {
					base = 0xD000
				}
				putWord(buf, pc, base|uint16(k)&0x0FFF)
				if k != int64(in.K) {
					r.PatchedTransfers++
				}
			}
		case avr.OpBRBS, avr.OpBRBC:
			oldT := uint32(int64(oldPC)+1+int64(in.K)) * 2
			if oldT < oldStart || oldT >= oldEnd {
				newT := remap(oldT)
				k := int64(newT/2) - int64(baseW+pc) - 1
				if k < -64 || k > 63 {
					return fmt.Errorf("%w: at byte 0x%X", ErrBranchRange, (baseW+pc)*2)
				}
				w := wordOf(buf, pc)
				w = w&^uint16(0x7F<<3) | (uint16(k)&0x7F)<<3
				putWord(buf, pc, w)
				if k != int64(in.K) {
					r.PatchedTransfers++
				}
			}
		}
		pc += uint32(in.Words)
	}
	return nil
}
