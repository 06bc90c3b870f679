package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"mavr/internal/avr"
	"mavr/internal/elfobj"
)

// Randomization and patching errors. A relative-range or LDI-encoding
// failure on a stock-toolchain binary is exactly why the paper requires
// --no-relax and -mno-call-prologues (§VI-B1).
var (
	ErrBadPermutation    = errors.New("core: not a permutation of the block set")
	ErrRelativeRange     = errors.New("core: relocated rjmp/rcall target out of relative range (binary built without --no-relax?)")
	ErrBranchRange       = errors.New("core: relocated conditional branch out of range")
	ErrPointerOverflow   = errors.New("core: relocated function pointer exceeds 16-bit word address")
	ErrInstrStreamDesync = errors.New("core: instruction walk desynchronized inside a function block")
)

// Permutation returns a uniformly random permutation of n block
// indices (Fisher-Yates) drawn from rng.
func Permutation(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// Randomized is the outcome of one randomization pass.
type Randomized struct {
	// Image is the patched, shuffled flash image (same length as the
	// original).
	Image []byte
	// Perm is the applied permutation: Perm[i] is the original block
	// index placed i-th in the new layout.
	Perm []int
	// NewStart[origIndex] is each block's new start byte address.
	NewStart []uint32
	// PatchedTransfers counts rewritten jmp/call/rjmp/rcall instructions.
	PatchedTransfers int
	// PatchedPointers counts rewritten data-section function pointers.
	PatchedPointers int
}

// Randomize produces a new flash image with the function blocks
// arranged according to perm, all encoded control transfers and
// function pointers patched (paper §V-B2/B3, §VI-B3). It is
// StreamRandomize writing into a buffer the size of the image.
func Randomize(p *Preprocessed, perm []int) (*Randomized, error) {
	out := bytes.NewBuffer(make([]byte, 0, len(p.Image)))
	r, err := StreamRandomize(p, perm, out)
	if err != nil {
		return nil, err
	}
	r.Image = out.Bytes()
	return r, nil
}

// StreamRandomize emits the randomized image (Randomized.Image stays
// nil) incrementally to w, holding one reused scratch buffer (sized for
// the largest block, or the fixed head or tail if larger) plus the
// old→new address map in memory — the paper's §VI-B3
// requirement: "each function can be processed in a streaming fashion,
// eliminating the need to fit the entire application into volatile
// memory".
//
// Each buffer is copied and only the sites the handle's relocation
// table lists for it are rewritten; the table is built once per handle
// by Preprocess or ReadPreprocessed. A handle whose image or blocks
// changed since then (or one built by hand) gets a table of its current
// contents, built for this call.
//
// The output order is physical: the fixed low-flash region (vectors and
// dispatch stubs), then each block at its new home in new-layout order,
// then the bytes above the function region (the .data load image with
// pointers patched, constants, calibration table).
func StreamRandomize(p *Preprocessed, perm []int, w io.Writer) (*Randomized, error) {
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
	// NewStart doubles as the seen-set while perm is checked.
	const unplaced = ^uint32(0)
	for i := range r.NewStart {
		r.NewStart[i] = unplaced
	}
	cursor := p.RegionStart
	scratchLen := max(p.RegionStart, uint32(len(p.Image))-p.RegionEnd)
	for _, orig := range perm {
		if orig < 0 || orig >= n || r.NewStart[orig] != unplaced {
			return nil, ErrBadPermutation
		}
		r.NewStart[orig] = cursor
		cursor += p.Blocks[orig].Size
		scratchLen = max(scratchLen, p.Blocks[orig].Size)
	}
	remap := func(old uint32) uint32 {
		i := p.BlockIndex(old)
		if i < 0 {
			return old // fixed region: vectors, stubs, data, constants
		}
		return r.NewStart[i] + (old - p.Blocks[i].Start)
	}
	relocs := p.relocsFor()

	// 1. Fixed low-flash code, patched in the scratch buffer.
	scratch := make([]byte, 0, scratchLen)
	head := append(scratch, p.Image[:p.RegionStart]...)
	if err := relocs.patch(head, 0, 0, p, r); err != nil {
		return nil, err
	}
	if _, err := w.Write(head); err != nil {
		return nil, err
	}

	// 2. Each block: read from the (external-flash) image, patched in
	// the scratch buffer, streamed out at its new position.
	for _, orig := range perm {
		b := p.Blocks[orig]
		buf := append(scratch, p.Image[b.Start:b.End()]...)
		if err := relocs.patch(buf, orig+1, r.NewStart[orig], p, r); err != nil {
			return nil, fmt.Errorf("block %q: %w", b.Name, err)
		}
		if _, err := w.Write(buf); err != nil {
			return nil, err
		}
	}

	// 3. Everything above the region, with data-section function
	// pointers (16-bit word addresses) patched on the way out.
	tail := append(scratch, p.Image[p.RegionEnd:]...)
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
	if _, err := w.Write(tail); err != nil {
		return nil, err
	}
	return r, nil
}

// Moves reports each block's relocation as "name: old -> new" lines,
// ordered by original address — the layout diff a defender inspects
// (and an attacker never sees, thanks to the readout fuse).
func (r *Randomized) Moves(p *Preprocessed) []string {
	out := make([]string, 0, len(p.Blocks))
	for i, b := range p.Blocks {
		out = append(out, fmt.Sprintf("%-40s 0x%06X -> 0x%06X (%d bytes)",
			b.Name, b.Start, r.NewStart[i], b.Size))
	}
	return out
}

// Symbols returns the function symbol table of the randomized image:
// the original blocks at their new starts, sorted by address, ready to
// embed in an output ELF.
func (r *Randomized) Symbols(p *Preprocessed) []elfobj.Symbol {
	out := make([]elfobj.Symbol, 0, len(p.Blocks))
	for i, b := range p.Blocks {
		out = append(out, elfobj.Symbol{
			Name:  b.Name,
			Value: r.NewStart[i],
			Size:  b.Size,
			Kind:  elfobj.SymFunc,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

func encodeLong(img []byte, pc uint32, op avr.Op, target uint32) {
	base := uint16(0x940C)
	if op == avr.OpCALL {
		base = 0x940E
	}
	hi := uint16(target >> 16)
	putWord(img, pc, base|(hi&0x3E)<<3|hi&1)
	putWord(img, pc+1, uint16(target))
}

func wordOf(img []byte, pc uint32) uint16 {
	return uint16(img[pc*2]) | uint16(img[pc*2+1])<<8
}

func putWord(img []byte, pc uint32, w uint16) {
	img[pc*2] = byte(w)
	img[pc*2+1] = byte(w >> 8)
}
