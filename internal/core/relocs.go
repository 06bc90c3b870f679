package core

import (
	"bytes"
	"fmt"
	"slices"

	"mavr/internal/avr"
)

// relocTable is the per-base relocation table: what an instruction
// walk of every patched buffer (the fixed head and each block) finds,
// recorded once so that each permutation copies a buffer and rewrites
// only its sites. It is host-side preprocessing, like PtrOffsets
// (§VI-B2: the host records what the master must patch), kept in
// memory; the MAVR1 upload does not carry it.
type relocTable struct {
	// code, blocks and regionStart are what the table was built from;
	// a cached table applies only while the handle still has them.
	code        []byte // p.Image[:p.RegionEnd]
	blocks      []Block
	regionStart uint32

	sites []relocSite
	// regions[0] is the fixed head [0, RegionStart); regions[i+1] is
	// block i.
	regions []relocRegion
}

// relocRegion is one buffer's slice of the table.
type relocRegion struct {
	lo, hi int32 // its sites are sites[lo:hi], in address order
	// desync is the word offset of the first instruction that is
	// invalid or runs past the buffer, or -1 when the buffer decodes to
	// its end. Patching stops there with ErrInstrStreamDesync.
	desync int32
}

// relocSite is one instruction a permutation may rewrite: a jmp/call
// whose target lies in a block, or an rjmp/rcall/brbs/brbc whose
// target lies outside its own buffer.
type relocSite struct {
	pc     uint32 // word offset from the start of the buffer
	target uint32 // original absolute target, byte address
	block  int32  // index of the block holding target, -1 when fixed
	k      int32  // original displacement in words (relative ops)
	op     avr.Op
}

// cacheRelocs builds the handle's relocation table. The parsers call
// it on a validated handle; nothing writes p.relocs afterwards.
func (p *Preprocessed) cacheRelocs() {
	t := buildRelocs(p)
	t.code = append([]byte(nil), p.Image[:p.RegionEnd]...)
	t.blocks = append([]Block(nil), p.Blocks...)
	t.regionStart = p.RegionStart
	p.relocs = t
}

// relocsFor returns the relocation table of a validated handle: the
// cached one while the image and blocks still equal what it was built
// from, otherwise a throwaway table of the handle as it is now.
func (p *Preprocessed) relocsFor() *relocTable {
	if t := p.relocs; t != nil && t.regionStart == p.RegionStart &&
		slices.Equal(t.blocks, p.Blocks) && bytes.Equal(t.code, p.Image[:p.RegionEnd]) {
		return t
	}
	return buildRelocs(p)
}

// buildRelocs decodes the fixed head and every block of a validated
// handle, each as the buffer StreamRandomize patches it in.
func buildRelocs(p *Preprocessed) *relocTable {
	t := &relocTable{regions: make([]relocRegion, len(p.Blocks)+1)}
	for i := range t.regions {
		oldStart, oldEnd := uint32(0), p.RegionStart
		if i > 0 {
			oldStart, oldEnd = p.Blocks[i-1].Start, p.Blocks[i-1].End()
		}
		reg := &t.regions[i]
		reg.lo, reg.desync = int32(len(t.sites)), -1
		buf := p.Image[oldStart:oldEnd]
		endW := uint32(len(buf) / 2)
		for pc := uint32(0); pc < endW; {
			in := avr.DecodeAt(buf, pc)
			if in.Op == avr.OpInvalid || pc+uint32(in.Words) > endW {
				reg.desync = int32(pc)
				break
			}
			if s, ok := p.siteOf(in, pc, oldStart, oldEnd); ok {
				t.sites = append(t.sites, s)
			}
			pc += uint32(in.Words)
		}
		reg.hi = int32(len(t.sites))
	}
	return t
}

// siteOf classifies the instruction at word pc of the buffer that held
// [oldStart, oldEnd) of the image: ok is false when no permutation
// rewrites it.
func (p *Preprocessed) siteOf(in avr.Instr, pc, oldStart, oldEnd uint32) (relocSite, bool) {
	s := relocSite{pc: pc, k: int32(in.K), op: in.Op}
	switch in.Op {
	case avr.OpJMP, avr.OpCALL:
		s.target = in.Target * 2
		s.block = int32(p.BlockIndex(s.target))
		return s, s.block >= 0 // a fixed target never moves
	case avr.OpRJMP, avr.OpRCALL, avr.OpBRBS, avr.OpBRBC:
		s.target = uint32(int64(oldStart/2+pc)+1+int64(in.K)) * 2
		s.block = int32(p.BlockIndex(s.target))
		return s, s.target < oldStart || s.target >= oldEnd // an intra-buffer target moves with it
	}
	return s, false
}

// patch rewrites region i's sites in buf, the region's bytes at their
// new byte address newBase, and counts the rewritten transfers in r.
func (t *relocTable) patch(buf []byte, i int, newBase uint32, p *Preprocessed, r *Randomized) error {
	reg := t.regions[i]
	baseW := newBase / 2
	for _, s := range t.sites[reg.lo:reg.hi] {
		newT := s.target
		if s.block >= 0 {
			newT = r.NewStart[s.block] + (s.target - p.Blocks[s.block].Start)
		}
		switch s.op {
		case avr.OpJMP, avr.OpCALL:
			if newT != s.target {
				encodeLong(buf, s.pc, s.op, newT/2)
				r.PatchedTransfers++
			}
		case avr.OpRJMP, avr.OpRCALL:
			k := int64(newT/2) - int64(baseW+s.pc) - 1
			if k < -2048 || k > 2047 {
				return fmt.Errorf("%w: at byte 0x%X", ErrRelativeRange, (baseW+s.pc)*2)
			}
			base := uint16(0xC000)
			if s.op == avr.OpRCALL {
				base = 0xD000
			}
			putWord(buf, s.pc, base|uint16(k)&0x0FFF)
			if k != int64(s.k) {
				r.PatchedTransfers++
			}
		default: // brbs/brbc
			k := int64(newT/2) - int64(baseW+s.pc) - 1
			if k < -64 || k > 63 {
				return fmt.Errorf("%w: at byte 0x%X", ErrBranchRange, (baseW+s.pc)*2)
			}
			w := wordOf(buf, s.pc)
			putWord(buf, s.pc, w&^uint16(0x7F<<3)|(uint16(k)&0x7F)<<3)
			if k != int64(s.k) {
				r.PatchedTransfers++
			}
		}
	}
	if reg.desync >= 0 {
		return fmt.Errorf("%w: invalid opcode at byte 0x%X", ErrInstrStreamDesync, (baseW+uint32(reg.desync))*2)
	}
	return nil
}
