package staticverify

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"mavr/internal/avr"
	"mavr/internal/core"
)

// DiffStats counts what the patch-completeness diff proved.
type DiffStats struct {
	// TransfersChecked counts direct jmp/call/rjmp/rcall/brbs/brbc
	// instructions whose targets were proven remapped.
	TransfersChecked int `json:"transfers_checked"`
	// VectorsChecked counts interrupt-vector entries proven remapped.
	VectorsChecked int `json:"vectors_checked"`
	// PointersChecked counts data-section function pointers proven
	// remapped.
	PointersChecked int `json:"pointers_checked"`
	// WordsCompared counts program words proven identical or remapped.
	WordsCompared int `json:"words_compared"`
}

// patchRegion indexes one contiguous code range of the base image for
// the patch diff: the fixed low-flash region (oldStart 0) or one
// function block. Walked linearly from its start, the region's
// instruction stream consists of sites and the plain instructions
// between them. A plain instruction must survive a permutation byte
// for byte, so the words between two sites are compared as one run.
type patchRegion struct {
	oldStart uint32 // byte address in the base image
	// end is the word offset where the run of whole instructions ends:
	// the region's length in words, or the offset of a final site where
	// the linear decode stops.
	end   uint32
	sites []patchSite
}

// patchSite is one instruction of a region that byte comparison alone
// does not settle: a direct transfer, whose target must be remapped;
// spm, which is always a finding; or where the linear decode stops,
// at an invalid opcode or a two-word instruction that overruns the
// region.
type patchSite struct {
	op    avr.Op
	pc    uint32 // word offset from the region start
	words uint32
	// target is a transfer's absolute target in the base image, byte
	// address.
	target uint32
	// flag is a conditional branch's status-flag index (zero for
	// rjmp/rcall).
	flag uint8
	// intoOperand marks a transfer whose target is the second word of a
	// jmp/call into a block: a word the randomizer rewrites, so what
	// executes there differs per permutation.
	intoOperand bool
}

// siteAt describes the base instruction in decoded at word offset pc of
// a region starting at word address oldW.
func siteAt(in avr.Instr, oldW, pc uint32) patchSite {
	s := patchSite{pc: pc, op: in.Op, words: uint32(in.Words)}
	switch in.Op {
	case avr.OpJMP, avr.OpCALL:
		s.target = in.Target * 2
	case avr.OpRJMP, avr.OpRCALL, avr.OpBRBS, avr.OpBRBC:
		s.target = uint32(int64(oldW+pc)+1+int64(in.K)) * 2
		s.flag = uint8(in.D)
	}
	return s
}

// sregFlags names the status-flag indices a brbs/brbc tests.
const sregFlags = "CZNVSHTI"

// isTransfer reports whether op is a direct transfer the randomizer
// patches.
func isTransfer(op avr.Op) bool {
	switch op {
	case avr.OpJMP, avr.OpCALL, avr.OpRJMP, avr.OpRCALL, avr.OpBRBS, avr.OpBRBC:
		return true
	}
	return false
}

// patchIndex indexes the base image for the patch diff: the fixed
// region, then one region per block in pre.Blocks order. g, when not
// nil, is the base image's graph; its per-function decode is reused
// instead of decoding the blocks again.
func patchIndex(pre *core.Preprocessed, g *Graph) []patchRegion {
	regs := make([]patchRegion, 0, len(pre.Blocks)+1)
	regs = append(regs, indexRegion(pre.Image, 0, pre.RegionStart, nil))
	for i, blk := range pre.Blocks {
		var code []avr.Instr
		if g != nil {
			code = g.Funcs[i].region.code
		}
		regs = append(regs, indexRegion(pre.Image, blk.Start, blk.Size, code))
	}

	operands := make(map[uint32]bool)
	for _, reg := range regs {
		for _, s := range reg.sites {
			if (s.op == avr.OpJMP || s.op == avr.OpCALL) && pre.BlockIndex(s.target) >= 0 {
				operands[reg.oldStart+(s.pc+1)*2] = true
			}
		}
	}
	for _, reg := range regs {
		for i := range reg.sites {
			s := &reg.sites[i]
			s.intoOperand = isTransfer(s.op) && operands[s.target]
		}
	}
	return regs
}

// byteRange is the half-open byte range [lo, hi).
type byteRange struct{ lo, hi uint32 }

// dataRanges splits the image past the code region at the pointer
// slots: the bytes every permutation must leave unchanged.
func dataRanges(pre *core.Preprocessed) []byteRange {
	slots := slices.Clone(pre.PtrOffsets)
	slices.Sort(slots)
	var out []byteRange
	lo, n := uint64(pre.RegionEnd), uint64(len(pre.Image))
	for _, off := range slots {
		if o := uint64(off); o > lo && lo < n {
			out = append(out, byteRange{uint32(lo), uint32(min(o, n))})
		}
		lo = max(lo, uint64(off)+2)
	}
	if lo < n {
		out = append(out, byteRange{uint32(lo), uint32(n)})
	}
	return out
}

// indexRegion walks size bytes of base-image code at byte address start
// linearly, taking each instruction from code (a decode indexed by word
// offset, where present) or decoding it.
func indexRegion(img []byte, start, size uint32, code []avr.Instr) patchRegion {
	reg := patchRegion{oldStart: start}
	oldW, endW := start/2, size/2
	pc := uint32(0)
	for pc < endW {
		var in avr.Instr
		if pc < uint32(len(code)) && code[pc].Words != 0 {
			in = code[pc]
		} else {
			in = avr.DecodeAt(img, oldW+pc)
		}
		if in.Op == avr.OpInvalid || pc+uint32(in.Words) > endW {
			reg.sites = append(reg.sites, siteAt(in, oldW, pc))
			break
		}
		if isTransfer(in.Op) || in.Op == avr.OpSPM {
			reg.sites = append(reg.sites, siteAt(in, oldW, pc))
		}
		pc += uint32(in.Words)
	}
	reg.end = pc
	return reg
}

// checkLayout is the diff's entry check: the randomized image must be
// as long as the base, with one relocated start per base block, and the
// relocated blocks must tile [RegionStart, RegionEnd) exactly, as the
// base's do. Every later walk indexes r.NewStart and the image through
// it, and a clean diff proves a bijection only block by block: a block
// moved out of the region, or over another, would keep the base's CFG
// without having it. So a failed check is the only finding and nothing
// else runs. On success it returns where the relocated blocks start.
func checkLayout(pre *core.Preprocessed, r *core.Randomized) (*blockStarts, []Finding) {
	bad := func(kind Kind, addr uint32, block, format string, args ...any) (*blockStarts, []Finding) {
		return nil, []Finding{{Kind: kind, Severity: SevError, Addr: addr, Block: block, Detail: fmt.Sprintf(format, args...)}}
	}
	if len(r.Image) != len(pre.Image) {
		return bad(KindSizeMismatch, 0, "", "randomized image is %d bytes, original %d", len(r.Image), len(pre.Image))
	}
	if len(r.NewStart) != len(pre.Blocks) {
		return bad(KindBadLayout, 0, "", "layout places %d blocks, original has %d", len(r.NewStart), len(pre.Blocks))
	}
	rs, re := pre.RegionStart, pre.RegionEnd
	total := uint64(0)
	for _, blk := range pre.Blocks {
		total += uint64(blk.Size)
	}
	if re < rs || total != uint64(re-rs) {
		return bad(KindBadLayout, 0, "", "original blocks total %d bytes, not the region [0x%X,0x%X)", total, rs, re)
	}

	// Blocks totalling the region's size tile it when the non-empty ones
	// lie inside it, one at its start, and every block ends where a
	// non-empty one starts or at the region end: nothing is left
	// uncovered, so nothing overlaps. An empty block thus sits where a
	// block starts or the region ends, as in the base.
	bs := &blockStarts{base: rs, bits: make([]uint64, (re-rs)/64+1)}
	for i, s := range r.NewStart {
		if blk := pre.Blocks[i]; blk.Size > 0 {
			if end := uint64(s) + uint64(blk.Size); s < rs || end > uint64(re) {
				return bad(KindBadLayout, s, blk.Name, "relocated block %q at [0x%X,0x%X) lies outside the code region [0x%X,0x%X)",
					blk.Name, s, end, rs, re)
			}
			bs.set(s)
		}
	}
	if rs < re && !bs.has(rs) {
		return bad(KindBadLayout, rs, "", "no relocated block starts at the region start 0x%X", rs)
	}
	for i, s := range r.NewStart {
		blk := pre.Blocks[i]
		if end := s + blk.Size; end != re && !bs.has(end) {
			return bad(KindBadLayout, s, blk.Name, "relocated block %q ends at 0x%X, where no block starts", blk.Name, end)
		}
		if s == re { // an empty block at the region end is an entry there
			bs.set(s)
		}
	}
	return bs, nil
}

// blockStarts marks the byte addresses in [base, RegionEnd] where a
// relocated block starts.
type blockStarts struct {
	base uint32
	bits []uint64
}

func (bs *blockStarts) set(a uint32) {
	i := a - bs.base
	bs.bits[i/64] |= 1 << (i % 64)
}

// has reports whether a relocated block starts at byte address a.
func (bs *blockStarts) has(a uint32) bool {
	i := uint64(a) - uint64(bs.base)
	return a >= bs.base && i/64 < uint64(len(bs.bits)) && bs.bits[i/64]>>(i%64)&1 != 0
}

// patchDiff is one run of the patch-completeness diff.
type patchDiff struct {
	pre      *core.Preprocessed
	r        *core.Randomized
	vecEnd   uint32
	st       DiffStats
	findings []Finding

	// The region being walked: its word address in the base and in the
	// randomized image, and its block name ("" for the fixed region).
	oldW, newW uint32
	block      string
}

// remap is the address mapping a randomization outcome applied: old
// byte address -> new byte address.
func remap(pre *core.Preprocessed, r *core.Randomized, old uint32) uint32 {
	i := pre.BlockIndex(old)
	if i < 0 {
		return old
	}
	return r.NewStart[i] + (old - pre.Blocks[i].Start)
}

func (d *patchDiff) add(kind Kind, addr uint32, block, detail string) {
	d.findings = append(d.findings, Finding{Kind: kind, Severity: SevError, Addr: addr, Block: block, Detail: detail})
}

// diff proves patch-completeness of a randomization outcome: every
// direct control transfer, vector entry and tabled function pointer
// was rewritten to exactly its relocated target, and nothing else
// changed, data past the code region included. The findings are empty
// iff the rewrite is provably complete and faithful.
//
// Each region is walked from its start as a lockstep walk of the base
// and randomized streams would: the randomized image is decoded only at
// the base's sites, and the runs between sites are compared byte for
// byte. A run that differs is stepped through instruction by
// instruction to report its first changed instruction, where the
// region's walk stops.
func (b *Base) diff(r *core.Randomized) ([]Finding, DiffStats) {
	pre := b.pre
	starts, fs := checkLayout(pre, r)
	if fs != nil {
		return fs, DiffStats{}
	}
	d := patchDiff{pre: pre, r: r, vecEnd: b.vecEnd}
	for ri := range b.regions {
		reg := &b.regions[ri]
		d.oldW, d.newW, d.block = reg.oldStart/2, reg.oldStart/2, "" // the fixed region stays put
		if ri > 0 {
			d.newW, d.block = r.NewStart[ri-1]/2, pre.Blocks[ri-1].Name
		}
		d.region(reg)
	}

	// Data-section function pointers (16-bit word addresses).
	for _, off := range pre.PtrOffsets {
		if int(off)+1 >= len(pre.Image) {
			d.add(KindDanglingEdge, off, "", "function-pointer offset outside the image")
			continue
		}
		d.st.PointersChecked++
		oldW := uint32(pre.Image[off]) | uint32(pre.Image[off+1])<<8
		newW := uint32(r.Image[off]) | uint32(r.Image[off+1])<<8
		want := remap(pre, r, oldW*2) / 2
		if newW != want {
			d.add(KindUnpatchedPointer, off, "", fmt.Sprintf("pointer 0x%X should be 0x%X after relocation, found 0x%X",
				oldW*2, want*2, newW*2))
			continue
		}
		if t := want * 2; !starts.has(t) && t >= pre.RegionStart {
			d.add(KindDanglingEdge, off, "", fmt.Sprintf("relocated pointer 0x%X is not a function entry", t))
		}
	}

	// Every other byte past the code region is data the randomizer
	// copies verbatim: one finding per changed range, at its first
	// changed byte.
	for _, rg := range b.data {
		old, got := pre.Image[rg.lo:rg.hi], r.Image[rg.lo:rg.hi]
		if bytes.Equal(old, got) {
			continue
		}
		i := 0
		for old[i] == got[i] {
			i++
		}
		d.add(KindDataChanged, rg.lo+uint32(i), "", fmt.Sprintf("data byte 0x%02X changed to 0x%02X, the first change in [0x%X,0x%X)",
			old[i], got[i], rg.lo, rg.hi))
	}

	// The vector table occupies the first NumVectors two-word jmp slots;
	// each entry must land on a relocated function entry (or fixed
	// code) in the new layout.
	for pc := uint32(0); pc*2 < b.vecEnd; pc += 2 {
		in := avr.DecodeAt(r.Image, pc)
		if in.Op != avr.OpJMP {
			continue
		}
		d.st.VectorsChecked++
		if t := in.Target * 2; !starts.has(t) && t >= pre.RegionStart {
			d.add(KindDanglingEdge, pc*2, "", fmt.Sprintf("vector %d target 0x%X is not a function entry", pc/2, t))
		}
	}
	return d.findings, d.st
}

// region diffs the region being walked until its end or the first
// finding that desynchronizes the streams.
func (d *patchDiff) region(reg *patchRegion) {
	pc := uint32(0)
	for _, s := range reg.sites {
		if !d.run(pc, s.pc) {
			return
		}
		n := d.step(s)
		if n == 0 {
			return
		}
		pc = s.pc + n
	}
	if pc < reg.end {
		d.run(pc, reg.end)
	}
}

// run compares the plain instructions in word offsets [from, to) and
// reports whether the walk continues past them.
func (d *patchDiff) run(from, to uint32) bool {
	if bytes.Equal(d.pre.Image[(d.oldW+from)*2:(d.oldW+to)*2], d.r.Image[(d.newW+from)*2:(d.newW+to)*2]) {
		d.st.WordsCompared += int(to - from)
		return true
	}
	for pc := from; pc < to; {
		n := d.step(siteAt(avr.DecodeAt(d.pre.Image, d.oldW+pc), d.oldW, pc))
		if n == 0 {
			return false
		}
		pc += n
	}
	return true
}

// step diffs one base instruction against the randomized one at the
// same region offset and returns its length in words, or 0 when the
// streams desynchronize there and the region's walk stops.
func (d *patchDiff) step(s patchSite) uint32 {
	oldW, newW, block := d.oldW, d.newW, d.block
	addr := (newW + s.pc) * 2
	if s.op == avr.OpInvalid {
		d.add(KindUndecodable, addr, block, "original instruction stream does not decode; diff truncated here")
		return 0
	}
	nin := avr.DecodeAt(d.r.Image, newW+s.pc)
	if s.op != nin.Op || s.words != uint32(nin.Words) {
		d.add(KindOpcodeMismatch, addr, block, fmt.Sprintf(
			"instruction changed from %s to %s; streams diverged, diff truncated here", s.op, nin.Op))
		return 0
	}
	d.st.WordsCompared += int(s.words)
	kind := KindUnpatchedTransfer
	if block == "" && addr < d.vecEnd {
		kind = KindUnpatchedVector
	}

	switch s.op {
	case avr.OpJMP, avr.OpCALL:
		d.st.TransfersChecked++
		want := remap(d.pre, d.r, s.target)
		if got := nin.Target * 2; got != want {
			d.add(kind, addr, block, fmt.Sprintf("%s 0x%X should be patched to 0x%X, found 0x%X",
				s.op, s.target, want, got))
		} else if avr.DecodeAt(d.r.Image, want/2).Op == avr.OpInvalid {
			d.add(KindDanglingEdge, addr, block, fmt.Sprintf("patched %s target 0x%X does not decode", s.op, want))
		} else if s.intoOperand {
			d.add(KindDanglingEdge, addr, block, operandDetail(s.op, want))
		}
	case avr.OpRJMP, avr.OpRCALL, avr.OpBRBS, avr.OpBRBC:
		d.st.TransfersChecked++
		newAbs := uint32(int64(newW+s.pc)+1+int64(nin.K)) * 2
		if want := remap(d.pre, d.r, s.target); newAbs != want {
			d.add(kind, addr, block, fmt.Sprintf("%s to 0x%X should reach 0x%X after relocation, found 0x%X",
				s.op, s.target, want, newAbs))
		} else if nin.D != int(s.flag) {
			d.add(KindOpcodeMismatch, addr, block, fmt.Sprintf("%s condition changed from flag %c to flag %c",
				s.op, sregFlags[s.flag], sregFlags[nin.D]))
		} else if s.intoOperand {
			d.add(KindDanglingEdge, addr, block, operandDetail(s.op, want))
		}
	case avr.OpSPM:
		d.add(KindUnverifiableSPM, addr, block,
			"spm inside verified region: self-modifying code cannot be proven patch-complete")
	default:
		// Everything else must be byte-identical.
		for w := uint32(0); w < s.words; w++ {
			if wordAt(d.pre.Image, oldW+s.pc+w) != wordAt(d.r.Image, newW+s.pc+w) {
				d.add(KindOpcodeMismatch, addr, block, fmt.Sprintf(
					"%s operands changed; streams diverged, diff truncated here", s.op))
				return 0
			}
		}
	}
	return s.words
}

// operandDetail explains a transfer that lands on a jmp/call's
// rewritten target word.
func operandDetail(op avr.Op, target uint32) string {
	return fmt.Sprintf("%s target 0x%X is the target word of a jmp/call the randomizer rewrites; what executes there differs per permutation",
		op, target)
}

// Fault-injection errors.
var (
	// ErrNoSuchPatch is returned by RevertPatch when fewer patched
	// sites exist than the requested index.
	ErrNoSuchPatch = errors.New("staticverify: no patched site with that index")
)

// RevertPatch undoes the n-th (0-based) patched direct transfer in a
// randomization outcome, writing the original encoding back into
// r.Image. It exists to inject exactly the defect the verifier must
// catch — a rewriter that missed one site — for tests, demos and CI
// canaries. Transfers count in the patch diff's order, and one counts
// as patched when any of its words differ. It returns the byte address
// of the reverted instruction in the randomized image, or an error for
// a layout the verifier's entry check rejects.
func RevertPatch(pre *core.Preprocessed, r *core.Randomized, n int) (uint32, error) {
	if _, fs := checkLayout(pre, r); fs != nil {
		return 0, fmt.Errorf("staticverify: %s", fs[0].Detail)
	}
	seen := 0
	for ri, reg := range patchIndex(pre, nil) {
		oldW, newW := reg.oldStart/2, reg.oldStart/2
		if ri > 0 {
			newW = r.NewStart[ri-1] / 2
		}
		for _, s := range reg.sites {
			if !isTransfer(s.op) {
				continue
			}
			o, nw := oldW+s.pc, newW+s.pc
			patched := false
			for w := uint32(0); w < s.words; w++ {
				if wordAt(pre.Image, o+w) != wordAt(r.Image, nw+w) {
					patched = true
				}
			}
			if !patched {
				continue
			}
			if seen == n {
				copy(r.Image[nw*2:], pre.Image[o*2:(o+s.words)*2])
				return nw * 2, nil
			}
			seen++
		}
	}
	return 0, ErrNoSuchPatch
}

// RevertPointerPatch undoes the n-th rewritten data-section function
// pointer, returning its flash byte offset. Like RevertPatch, it is a
// fault injector for exercising the verifier, and refuses a layout the
// verifier's entry check rejects.
func RevertPointerPatch(pre *core.Preprocessed, r *core.Randomized, n int) (uint32, error) {
	if _, fs := checkLayout(pre, r); fs != nil {
		return 0, fmt.Errorf("staticverify: %s", fs[0].Detail)
	}
	seen := 0
	for _, off := range pre.PtrOffsets {
		if pre.Image[off] == r.Image[off] && pre.Image[off+1] == r.Image[off+1] {
			continue
		}
		if seen == n {
			r.Image[off] = pre.Image[off]
			r.Image[off+1] = pre.Image[off+1]
			return off, nil
		}
		seen++
	}
	return 0, ErrNoSuchPatch
}
