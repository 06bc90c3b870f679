package staticverify

import (
	"sync/atomic"

	"mavr/internal/avr"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/staticverify/vsa"
)

// Base is the verifier of one base image under fixed options. It
// computes once what verification derives from the original
// (pre-randomization) image alone — the patch diff's index of its
// direct transfers, the conservative CFG, the value-set analysis and
// the shape of every gadget in the base image — and amortizes it across
// arbitrarily many permutations of that image. Verify(pre, r, opts) is
// NewBase(pre, opts).Verify(r).
//
// The soundness argument for reusing the base's results: a diff with no
// findings proves the randomized image is, instruction for instruction,
// the base image with blocks relocated and transfer targets remapped
// through the permutation's bijection. Under that proof every CFG
// classification (entry/fixed/interior/dangling, block leaders, call
// edges, indirect sites) is invariant, so a base CFG with zero findings
// implies a randomized CFG with zero findings and identical stats.
// Any other outcome — a diff finding, base CFG findings whose
// addresses would need textual translation, or an image that differs
// from the base on a byte the cached analysis read — gets the
// randomized image's own CFG and analysis instead.
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
	// order.
	regions  []patchRegion
	stats    CFGStats
	cfgClean bool
	vecEnd   uint32

	// vsaRes is the base-image value-set analysis (opts.VSA on a clean
	// base CFG). Its addresses are function-relative and its details
	// address-free, so it translates exactly to any permutation whose
	// diff passes and whose image agrees with the base on vsaRes.Reads.
	// fixedEntries reconstructs the translated entry-target set.
	vsaRes       *vsa.Result
	fixedEntries []uint32

	// gadgets is the base image's gadget census when opts.Gadgets is
	// set.
	gadgets *gadgetCensus

	fast          atomic.Uint64
	fallbackBase  atomic.Uint64
	fallbackDiff  atomic.Uint64
	fallbackReads atomic.Uint64
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

// BaseStats counts how Base.Verify resolved its calls.
type BaseStats struct {
	// FastVerifies reused the base's CFG and analysis end to end.
	FastVerifies uint64
	// FallbackVerifies recovered the randomized image's own CFG (and
	// analysis): the sum of the three causes below.
	FallbackVerifies uint64
	// FallbackBaseFindings: the base CFG has findings, so no cached
	// result translates.
	FallbackBaseFindings uint64
	// FallbackDiffDivergence: the patch diff found a divergence from the
	// base (including a size mismatch or a malformed layout).
	FallbackDiffDivergence uint64
	// FallbackVSAReadsChanged: the image differs from the base on a
	// flash byte the cached value-set analysis read.
	FallbackVSAReadsChanged uint64
}

// NewBase builds the verifier for one preprocessed base image under
// fixed options; the same opts apply to every Verify on the handle.
func NewBase(pre *core.Preprocessed, opts Options) *Base {
	if opts.GadgetMaxWords <= 0 {
		opts.GadgetMaxWords = DefaultOptions().GadgetMaxWords
	}
	b := &Base{pre: pre, opts: opts}

	vecEnd := uint32(firmware.NumVectors) * 4
	if vecEnd > pre.RegionStart {
		vecEnd = pre.RegionStart
	}
	b.vecEnd = vecEnd

	// The graph's function order is pre.Blocks order, and CFG recovery
	// already decoded each block: the diff and the analysis reuse it.
	g := Recover(pre.Image, pre.Blocks, pre.RegionStart, pre.RegionEnd)
	b.regions = patchIndex(pre, g)
	b.stats = cfgStats(g)
	b.cfgClean = len(g.Findings) == 0

	if opts.VSA && b.cfgClean {
		// The base graph's function order is pre.Blocks order, so result
		// index i translates through r.NewStart[i].
		b.vsaRes = vsa.Analyze(VSAInput(pre.Image, g, pre))
		b.fixedEntries = g.FixedEntries
	}

	if opts.Gadgets {
		b.gadgets = newGadgetCensus(pre.Image, opts.GadgetMaxWords)
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

// Verify runs the full static verification of one randomization
// outcome of the handle's base image: the patch-completeness diff
// against the base, the CFG of the randomized image, and (per the
// handle's options) the value-set analysis and the residual gadget
// audit. A clean outcome of a clean base reuses the base's CFG stats
// and translated analysis; any other outcome recovers the randomized
// image's own CFG and analysis, so defective images are reported with
// full findings. The gadget census takes one path for every outcome:
// it reuses each base gadget whose window the outcome left unchanged,
// byte for byte, and recomputes the rest.
func (b *Base) Verify(r *core.Randomized) *Report {
	pre := b.pre
	rep := &Report{
		Blocks:      len(pre.Blocks),
		RegionStart: pre.RegionStart,
		RegionEnd:   pre.RegionEnd,
	}
	diffFindings, diffStats, laidOut := b.diff(r)
	rep.Diff = diffStats

	fast := false
	switch {
	case !b.cfgClean:
		b.fallbackBase.Add(1)
	case len(diffFindings) > 0:
		b.fallbackDiff.Add(1)
	case b.opts.VSA && !b.vsaRes.ReadsEqual(pre.Image, r.Image):
		// The analysis depended on a flash byte the permutation changed
		// outside what the structural diff models; re-analyze fresh.
		b.fallbackReads.Add(1)
	default:
		b.fast.Add(1)
		fast = true
	}

	var graphFindings, vsaFindings []Finding
	demote := false
	switch {
	case fast:
		rep.CFG = b.stats
		if b.opts.VSA {
			rep.VSA, vsaFindings, demote = renderVSA(b.vsaRes, b.translatedLayout(r))
		}
	case laidOut: // a layout that failed the entry check gets no graph either
		g := Recover(r.Image, RelocatedBlocks(pre, r), pre.RegionStart, pre.RegionEnd)
		rep.CFG = cfgStats(g)
		graphFindings = g.Findings
		if b.opts.VSA {
			res := vsa.Analyze(VSAInput(r.Image, g, pre))
			rep.VSA, vsaFindings, demote = renderVSA(res, graphLayout(r.Image, g))
		}
	}
	rep.Findings = mergeFindings(diffFindings, graphFindings, vsaFindings)

	if b.opts.Gadgets {
		audit, gfs := b.gadgets.audit(pre, r, demote)
		rep.Gadgets = &audit
		rep.Findings = append(rep.Findings, gfs...)
	}
	sortFindings(rep.Findings)
	return rep
}

// mergeFindings concatenates finding lists, keeping the first finding
// per (kind, address, block): the diff and the CFG both flag spm and
// undecodable sites.
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
