package staticverify

import (
	"mavr/internal/avr"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/gadget"
	"mavr/internal/staticverify/vsa"
)

// Base is the verifier of one base image under fixed options. It
// computes once what verification derives from the original
// (pre-randomization) image alone — the patch diff's index of its
// direct transfers and data, the conservative CFG, the value-set
// analysis and the shape of every gadget in the base image — and
// amortizes it across arbitrarily many permutations of that image.
// Verify(pre, r, opts) is NewBase(pre, opts).Verify(r).
//
// The patch diff decides every outcome. A diff with no findings proves
// the randomized image is, instruction for instruction and data byte
// for data byte, the base image with blocks relocated and transfer
// targets remapped through the permutation's bijection. Two conditions
// make that proof carry the whole analysis over:
//
//   - No direct transfer, vector or tabled function pointer lands on
//     the second word of a jmp/call into a block. The randomizer
//     rewrites that word, so the base and each permutation would
//     execute different code there; the diff reports such a target as
//     an error on every outcome.
//   - The value-set analysis reads every flash byte below RegionEnd as
//     top, since the fixed region's transfer words change per
//     permutation too; the bytes above it that it does read are data
//     the diff proves unchanged, or pointer slots it never concretizes.
//
// Under the proof every CFG classification (entry/fixed/interior/
// dangling, block leaders, call edges, indirect sites) and every
// abstract state is invariant, so the randomized image's CFG and
// analysis are the base's, translated: a finding moves with its own
// function — by block, not by the block holding its address, since a
// fall-through finding sits at its function's end, the next block's
// start — and any transfer target its detail names is remapped. That
// holds whether or not the base CFG is clean. An outcome the diff
// rejects is reported by the diff's findings alone: it is unflashable
// whatever else might be said about it.
//
// The transfer index comes from the verifier's own decode of the base
// image, never from the randomizer's relocation table, so a site the
// randomizer failed to list (and so left unpatched) is still checked.
//
// A Base is safe for concurrent use by multiple goroutines once built.
type Base struct {
	pre  *core.Preprocessed
	opts Options

	// regions index the base image for the patch diff: the fixed
	// low-flash region followed by one region per block, in pre.Blocks
	// order. data are the byte ranges past the code region outside the
	// pointer slots.
	regions []patchRegion
	data    []byteRange
	vecEnd  uint32
	// operands marks the target words of jmp/calls into blocks, which
	// no transfer, pointer or vector may target (patchIndex).
	operands map[uint32]bool

	// stats and found are the base image's CFG summary and findings.
	stats CFGStats
	found []cfgFinding

	// vsaRes is the base-image value-set analysis (opts.VSA). Its
	// addresses are function-relative and its details address-free, so
	// it translates exactly to any permutation whose diff passes.
	// fixedEntries reconstructs the translated entry-target set.
	vsaRes       *vsa.Result
	fixedEntries []uint32

	// gadgets is the base image's gadget census when opts.Gadgets is
	// set.
	gadgets *gadgetCensus
}

// baseRegion is the linear decode of one function extent.
type baseRegion struct {
	// code is indexed by word offset from the extent start; the
	// instructions chain from offset 0 by their Words, and slots where
	// none starts stay zero.
	code []avr.Instr
	// clean is false when linear decoding stopped early (invalid opcode
	// or extent overrun).
	clean bool
}

// NewBase builds the verifier for one preprocessed base image under
// fixed options; the same opts apply to every Verify on the handle.
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
	b.regions, b.operands = patchIndex(pre, g)
	b.data = dataRanges(pre)
	b.stats = cfgStats(g)
	b.found = g.found

	if opts.VSA {
		// The base graph's function order is pre.Blocks order, so result
		// index i translates through r.NewStart[i].
		b.vsaRes = vsa.Analyze(VSAInput(pre.Image, g, pre))
		b.fixedEntries = g.FixedEntries
	}

	if opts.Gadgets {
		b.gadgets = newGadgetCensus(pre.Image, gadget.Window)
	}
	return b
}

// cfgStats summarizes a recovered graph.
func cfgStats(g *Graph) CFGStats {
	st := CFGStats{
		Funcs:           len(g.Funcs),
		BasicBlocks:     g.BasicBlockCount(),
		CallEdges:       g.CallEdgeCount(),
		IndirectSites:   g.IndirectSiteCount(),
		IndirectTargets: len(g.EntryTargets),
	}
	for _, f := range g.Funcs {
		st.Instrs += f.Instrs
	}
	return st
}

// decodeRegion linearly decodes size bytes of base-image code starting
// at byte address start.
func decodeRegion(img []byte, start, size uint32) baseRegion {
	startW, endW := start/2, (start+size)/2
	reg := baseRegion{code: make([]avr.Instr, endW-startW), clean: true}
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

// Verify runs the full static verification of one randomization
// outcome of the handle's base image: the patch-completeness diff
// against the base and, per the handle's options, the residual gadget
// audit. A clean diff's report carries the base's CFG stats and
// findings and (per the options) its value-set analysis, translated
// into the outcome's layout; a defective outcome's report carries the
// diff's findings and stats, a zero CFG and no analysis. The gadget
// census takes one path for every outcome: it reuses each base gadget
// whose window the outcome left unchanged, byte for byte, and
// recomputes the rest.
func (b *Base) Verify(r *core.Randomized) *Report {
	pre := b.pre
	rep := &Report{
		Blocks:      len(pre.Blocks),
		RegionStart: pre.RegionStart,
		RegionEnd:   pre.RegionEnd,
	}
	rep.Findings, rep.Diff = b.diff(r)

	demote := false
	if len(rep.Findings) == 0 {
		rep.CFG = b.stats
		var vsaFindings []Finding
		if b.vsaRes != nil {
			rep.VSA, vsaFindings, demote = renderVSA(b.vsaRes, b.translatedLayout(r))
		}
		rep.Findings = mergeFindings(b.translatedFindings(r), vsaFindings)
	}

	if b.opts.Gadgets {
		audit, gfs := b.gadgets.audit(pre, r, demote)
		rep.Gadgets = &audit
		rep.Findings = append(rep.Findings, gfs...)
	}
	sortFindings(rep.Findings)
	return rep
}

// translatedFindings renders the base CFG's findings in the layout of
// an outcome the diff passed.
func (b *Base) translatedFindings(r *core.Randomized) []Finding {
	if len(b.found) == 0 {
		return nil
	}
	out := make([]Finding, len(b.found))
	for i, f := range b.found {
		var delta uint32
		if f.fn >= 0 {
			delta = r.NewStart[f.fn] - b.pre.Blocks[f.fn].Start
		}
		out[i] = f.at(delta, func(t uint32) uint32 { return remap(b.pre, r, t) })
	}
	return out
}

// mergeFindings concatenates finding lists, keeping the first finding
// per (kind, address, block), as the reference verifier does.
func mergeFindings(lists ...[]Finding) []Finding {
	type key struct {
		kind  Kind
		addr  uint32
		block string
	}
	var out []Finding
	var seen map[key]bool
	for _, fs := range lists {
		for _, f := range fs {
			k := key{f.Kind, f.Addr, f.Block}
			if seen[k] {
				continue
			}
			if seen == nil {
				seen = make(map[key]bool)
			}
			seen[k] = true
			out = append(out, f)
		}
	}
	return out
}

// translatedLayout positions the cached base analysis in one
// permutation's image: function i (pre.Blocks order, the base graph's
// order) now starts at r.NewStart[i], and the entry-target set is the
// fixed entries plus the relocated block starts — exactly what
// recovering the randomized image's graph would compute. r passed
// checkLayout, so every relocated start lies at or above the region
// start, past every fixed entry: the two sorted lists concatenate into
// the sorted set.
func (b *Base) translatedLayout(r *core.Randomized) vsaLayout {
	lay := vsaLayout{
		img:   r.Image,
		name:  func(i int) string { return b.pre.Blocks[i].Name },
		start: func(i int) uint32 { return r.NewStart[i] },
	}
	if b.stats.IndirectSites > 0 {
		ents := make([]uint32, 0, len(b.fixedEntries)+len(r.NewStart))
		ents = append(ents, b.fixedEntries...)
		for _, k := range sortedStarts(b.pre, r) {
			ents = append(ents, uint32(k>>32))
		}
		lay.entries = ents
	}
	return lay
}

// VSASummary reports the cached base analysis' site resolution: how
// many indirect sites the image has and how many resolved to proven
// target sets. ok is false when the handle has no cached analysis (VSA
// disabled).
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
