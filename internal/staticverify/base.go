package staticverify

import (
	"bytes"
	"sort"
	"sync/atomic"

	"mavr/internal/avr"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/gadget"
	"mavr/internal/staticverify/vsa"
)

// Base is a reusable verification handle for one base image: everything
// Verify derives from the original (pre-randomization) image alone —
// the direct transfers of its instruction stream, the conservative CFG
// and the original gadget census — computed once and amortized across
// arbitrarily many permutations of that image. Verify on a Base
// produces a Report that is byte-for-byte identical to the stateless
// Verify; the fast path is only taken when it can prove that equality,
// and anything it cannot prove falls back to the stateless
// implementation.
//
// The soundness argument for the fast path: the lockstep diff proves
// the randomized image is, instruction for instruction, the base image
// with blocks relocated and transfer targets remapped through the
// permutation's bijection. Under that proof every CFG classification
// (entry/fixed/interior/dangling, block leaders, call edges, indirect
// sites) is invariant, so a base CFG with zero findings implies a
// randomized CFG with zero findings and identical stats. If the diff
// finds any divergence, or the base CFG itself has findings whose
// addresses would need textual translation, Base.Verify re-runs the
// full stateless Verify instead of translating.
//
// The transfer index comes from the verifier's own decode of the base
// image, never from the randomizer's relocation table, so a site the
// randomizer failed to list (and so left unpatched) is still checked.
//
// A Base is safe for concurrent use by multiple goroutines once built.
type Base struct {
	pre  *core.Preprocessed
	opts Options

	// regions index the base image for the cached diff: the fixed
	// low-flash region followed by one region per block, in
	// pre.Blocks order.
	regions  []diffRegion
	stats    CFGStats
	cfgClean bool
	vecEnd   uint32

	// vsaRes is the base-image value-set analysis (opts.VSA on a clean
	// base CFG). Its addresses are function-relative and its details
	// address-free, so it translates exactly to any permutation whose
	// lockstep diff passes and whose image agrees with the base on
	// vsaRes.Reads. fixedEntries reconstructs the translated
	// entry-target set.
	vsaRes       *vsa.Result
	fixedEntries []uint32

	// origGadgets/origAt cache the original-image gadget census when
	// opts.Gadgets is set.
	origGadgets []*gadget.Gadget
	origAt      map[uint32]*gadget.Gadget

	fast          atomic.Uint64
	fallbackBase  atomic.Uint64
	fallbackDiff  atomic.Uint64
	fallbackReads atomic.Uint64
}

// baseRegion is the linear decode of one contiguous code range of the
// base image: the fixed region (oldStart 0) or one function block.
type baseRegion struct {
	oldStart uint32 // byte address in the base image
	// code is indexed by word offset from oldStart; the instructions
	// chain from offset 0 by their Words, and slots where none starts
	// stay zero.
	code []avr.Instr
	// clean is false when linear decoding stopped early (invalid opcode
	// or extent overrun) — the fresh diff emits a finding there, so the
	// fast path cannot be taken.
	clean bool
}

// diffRegion is what the cached diff keeps of one baseRegion: its
// direct control transfers. Every other instruction must survive a
// permutation byte for byte, so the words between two transfers are
// compared as one run.
type diffRegion struct {
	oldStart, words uint32 // byte address in the base image, length in words
	transfers       []diffTransfer
	// diffable is false when the fresh diff emits a finding here under
	// any permutation: the linear decode stopped early (baseRegion.clean
	// is false) or the region contains spm.
	diffable bool
}

// diffTransfer is one jmp/call/rjmp/rcall/brbs/brbc of a region.
type diffTransfer struct {
	pc uint32 // word offset from the region start
	op avr.Op
	// target is the transfer's absolute target in the base image,
	// byte address.
	target uint32
}

// index keeps what the cached diff needs of a decoded region.
func (reg baseRegion) index() diffRegion {
	d := diffRegion{oldStart: reg.oldStart, words: uint32(len(reg.code)), diffable: reg.clean}
	if !reg.clean {
		return d
	}
	oldW := reg.oldStart / 2
	for pc := uint32(0); pc < d.words; pc += uint32(reg.code[pc].Words) {
		in := &reg.code[pc]
		switch in.Op {
		case avr.OpJMP, avr.OpCALL:
			d.transfers = append(d.transfers, diffTransfer{pc: pc, op: in.Op, target: in.Target * 2})
		case avr.OpRJMP, avr.OpRCALL, avr.OpBRBS, avr.OpBRBC:
			d.transfers = append(d.transfers, diffTransfer{
				pc: pc, op: in.Op, target: uint32(int64(oldW+pc)+1+int64(in.K)) * 2,
			})
		case avr.OpSPM:
			d.diffable = false
		}
	}
	return d
}

// BaseStats counts how Base.Verify resolved its calls.
type BaseStats struct {
	// FastVerifies took the cached path end to end.
	FastVerifies uint64
	// FallbackVerifies re-ran the stateless Verify: the sum of the
	// three causes below.
	FallbackVerifies uint64
	// FallbackBaseFindings: the base CFG has findings, so no cached
	// result translates.
	FallbackBaseFindings uint64
	// FallbackDiffDivergence: the lockstep diff found a divergence from
	// the base (including a size mismatch).
	FallbackDiffDivergence uint64
	// FallbackVSAReadsChanged: the image differs from the base on a
	// flash byte the cached value-set analysis read.
	FallbackVSAReadsChanged uint64
}

// NewBase builds the cached verification handle for one preprocessed
// base image under fixed options. The same opts apply to every Verify
// on the handle; NewBase(pre, opts).Verify(r) == Verify(pre, r, opts)
// byte for byte.
func NewBase(pre *core.Preprocessed, opts Options) *Base {
	b := &Base{pre: pre, opts: opts}

	vecEnd := uint32(firmware.NumVectors) * 4
	if vecEnd > pre.RegionStart {
		vecEnd = pre.RegionStart
	}
	b.vecEnd = vecEnd

	// The graph's function order is pre.Blocks order, and CFG recovery
	// already decoded each block: the diff and the analysis reuse it.
	g := Recover(pre.Image, pre.Blocks, pre.RegionStart, pre.RegionEnd)
	b.regions = make([]diffRegion, 0, len(g.Funcs)+1)
	b.regions = append(b.regions, decodeRegion(pre.Image, 0, pre.RegionStart).index())
	for _, f := range g.Funcs {
		b.regions = append(b.regions, f.region.index())
	}
	b.stats = CFGStats{
		Funcs:           len(g.Funcs),
		BasicBlocks:     g.BasicBlockCount(),
		CallEdges:       g.CallEdgeCount(),
		IndirectSites:   g.IndirectSiteCount(),
		IndirectTargets: len(g.EntryTargets),
	}
	for _, f := range g.Funcs {
		b.stats.Instrs += f.Instrs
	}
	b.cfgClean = len(g.Findings) == 0

	if opts.VSA && b.cfgClean {
		// The base graph's function order is pre.Blocks order, so result
		// index i translates through r.NewStart[i].
		b.vsaRes = vsa.Analyze(VSAInput(pre.Image, g, pre))
		b.fixedEntries = g.FixedEntries
	}

	if opts.Gadgets {
		maxWords := opts.GadgetMaxWords
		if maxWords <= 0 {
			maxWords = 24
		}
		b.origGadgets = gadget.Scan(pre.Image, maxWords)
		b.origAt = gadgetIndex(b.origGadgets)
	}
	return b
}

// decodeRegion linearly decodes size bytes of base-image code starting
// at byte address start.
func decodeRegion(img []byte, start, size uint32) baseRegion {
	startW, endW := start/2, (start+size)/2
	reg := baseRegion{oldStart: start, code: make([]avr.Instr, endW-startW), clean: true}
	for pc := startW; pc < endW; {
		in := avr.DecodeAt(img, pc)
		if in.Op == avr.OpInvalid || pc+uint32(in.Words) > endW {
			reg.clean = false
			break
		}
		reg.code[pc-startW] = in
		pc += uint32(in.Words)
	}
	return reg
}

// Stats returns how many Verify calls took the fast vs. fallback path.
func (b *Base) Stats() BaseStats {
	st := BaseStats{
		FastVerifies:            b.fast.Load(),
		FallbackBaseFindings:    b.fallbackBase.Load(),
		FallbackDiffDivergence:  b.fallbackDiff.Load(),
		FallbackVSAReadsChanged: b.fallbackReads.Load(),
	}
	st.FallbackVerifies = st.FallbackBaseFindings + st.FallbackDiffDivergence + st.FallbackVSAReadsChanged
	return st
}

// Pre returns the preprocessed base image the handle was built from.
func (b *Base) Pre() *core.Preprocessed { return b.pre }

// Verify verifies one randomization outcome of the handle's base image,
// producing exactly the Report the stateless Verify(pre, r, opts)
// would. Clean outcomes of a clean base take the cached fast path; any
// divergence falls back to the stateless implementation, so defective
// images are reported with full findings.
func (b *Base) Verify(r *core.Randomized) *Report {
	if !b.cfgClean {
		b.fallbackBase.Add(1)
		return Verify(b.pre, r, b.opts)
	}
	st, ok := b.fastDiff(r)
	if !ok {
		b.fallbackDiff.Add(1)
		return Verify(b.pre, r, b.opts)
	}
	if b.opts.VSA && !b.vsaRes.ReadsEqual(b.pre.Image, r.Image) {
		// The analysis depended on a flash byte the permutation changed
		// outside what the structural diff models; re-analyze fresh.
		b.fallbackReads.Add(1)
		return Verify(b.pre, r, b.opts)
	}
	b.fast.Add(1)

	rep := &Report{
		Blocks:      len(b.pre.Blocks),
		RegionStart: b.pre.RegionStart,
		RegionEnd:   b.pre.RegionEnd,
		CFG:         b.stats,
		Diff:        st,
	}
	demote := false
	if b.opts.VSA {
		var vfs []Finding
		rep.VSA, vfs, demote = renderVSA(b.vsaRes, b.translatedLayout(r))
		rep.Findings = append(rep.Findings, vfs...)
	}
	if b.opts.Gadgets {
		maxWords := b.opts.GadgetMaxWords
		if maxWords <= 0 {
			maxWords = 24
		}
		audit, gfs := auditGadgetsAgainst(b.pre, r, maxWords, b.origGadgets, b.origAt, demote)
		rep.Gadgets = &audit
		rep.Findings = append(rep.Findings, gfs...)
	}
	sortFindings(rep.Findings)
	return rep
}

// translatedLayout positions the cached base analysis in one
// permutation's image: function i (pre.Blocks order, the base graph's
// order) now starts at r.NewStart[i], and the entry-target set is the
// fixed entries plus the relocated block starts — exactly what
// recovering the randomized image's graph would compute.
func (b *Base) translatedLayout(r *core.Randomized) vsaLayout {
	lay := vsaLayout{
		img:   r.Image,
		name:  func(i int) string { return b.pre.Blocks[i].Name },
		start: func(i int) uint32 { return r.NewStart[i] },
	}
	if b.stats.IndirectSites > 0 {
		ents := make([]uint32, 0, len(b.fixedEntries)+len(r.NewStart))
		ents = append(ents, b.fixedEntries...)
		ents = append(ents, r.NewStart...)
		sort.Slice(ents, func(i, j int) bool { return ents[i] < ents[j] })
		lay.entries = ents
	}
	return lay
}

// VSASummary reports the cached base analysis' site resolution: how
// many indirect sites the image has and how many resolved to proven
// target sets. ok is false when the handle has no cached analysis
// (VSA disabled, or the base CFG was not clean).
func (b *Base) VSASummary() (sites, resolved int, ok bool) {
	if b.vsaRes == nil {
		return 0, 0, false
	}
	for _, s := range b.vsaRes.Sites {
		sites++
		if s.Resolved {
			resolved++
		}
	}
	return sites, resolved, true
}

// fastDiff is the cached patch-completeness check. Per region it
// decodes the randomized image only at the base's direct transfers and
// compares the runs of words between them byte for byte, which is
// what the lockstep walk checks of every other instruction. It returns
// (stats, true) exactly when the stateless VerifyPatches would return
// zero findings — and then with identical stats. Any would-be finding
// (or a base stream the fresh diff would truncate) returns ok=false
// without attempting to reproduce the finding text.
func (b *Base) fastDiff(r *core.Randomized) (DiffStats, bool) {
	var st DiffStats
	pre := b.pre
	if len(r.Image) != len(pre.Image) || len(r.NewStart) != len(pre.Blocks) {
		return st, false
	}
	remap := remapper(pre, r)
	newStarts := make(map[uint32]bool, len(pre.Blocks))
	for i := range pre.Blocks {
		newStarts[r.NewStart[i]] = true
	}

	for ri := range b.regions {
		reg := &b.regions[ri]
		if !reg.diffable {
			return st, false
		}
		newStart := reg.oldStart // fixed region stays put
		if ri > 0 {
			newStart = r.NewStart[ri-1]
		}
		oldW, newW := reg.oldStart/2, newStart/2
		run := uint32(0) // first word of the run not yet compared
		for _, t := range reg.transfers {
			// Everything between transfers must be byte-identical.
			if !wordsEqual(pre.Image, r.Image, oldW+run, newW+run, t.pc-run) {
				return st, false
			}
			nin := avr.DecodeAt(r.Image, newW+t.pc)
			if nin.Op != t.op {
				return st, false
			}
			switch t.op {
			case avr.OpJMP, avr.OpCALL:
				want := remap(t.target)
				if nin.Target*2 != want {
					return st, false
				}
				if avr.DecodeAt(r.Image, want/2).Op == avr.OpInvalid {
					return st, false
				}
			default:
				newAbs := uint32(int64(newW+t.pc)+1+int64(nin.K)) * 2
				if newAbs != remap(t.target) {
					return st, false
				}
			}
			run = t.pc + uint32(nin.Words)
		}
		if !wordsEqual(pre.Image, r.Image, oldW+run, newW+run, reg.words-run) {
			return st, false
		}
		st.TransfersChecked += len(reg.transfers)
		st.WordsCompared += int(reg.words)
	}

	// Data-section function pointers, exactly as the fresh diff checks
	// them.
	for _, off := range pre.PtrOffsets {
		if int(off)+1 >= len(pre.Image) {
			return st, false
		}
		st.PointersChecked++
		oldWd := uint32(pre.Image[off]) | uint32(pre.Image[off+1])<<8
		newWd := uint32(r.Image[off]) | uint32(r.Image[off+1])<<8
		want := remap(oldWd*2) / 2
		if newWd != want {
			return st, false
		}
		if t := want * 2; !newStarts[t] && t >= pre.RegionStart {
			return st, false
		}
	}

	// Vector entries must land on relocated entries (or fixed code).
	for pc := uint32(0); pc*2 < b.vecEnd; pc += 2 {
		in := avr.DecodeAt(r.Image, pc)
		if in.Op != avr.OpJMP {
			continue
		}
		st.VectorsChecked++
		if t := in.Target * 2; !newStarts[t] && t >= pre.RegionStart {
			return st, false
		}
	}
	return st, true
}

// wordsEqual reports whether n words of a at word address aw equal n
// words of b at bw, each read as wordAt reads it (0xFFFF past the end).
func wordsEqual(a, b []byte, aw, bw, n uint32) bool {
	ai, bi, nb := uint64(aw)*2, uint64(bw)*2, uint64(n)*2
	if ai+nb <= uint64(len(a)) && bi+nb <= uint64(len(b)) {
		return bytes.Equal(a[ai:ai+nb], b[bi:bi+nb])
	}
	for i := uint32(0); i < n; i++ {
		if wordAt(a, aw+i) != wordAt(b, bw+i) {
			return false
		}
	}
	return true
}
