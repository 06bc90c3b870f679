package staticverify

import (
	"bytes"
	"fmt"
	"sort"

	"mavr/internal/avr"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/gadget"
	"mavr/internal/staticverify/vsa"
)

// This file keeps the stateless verifier the package shipped before
// Verify became NewBase(pre, opts).Verify(r): a lockstep walk of the
// original and randomized instruction streams plus CFG recovery, value-
// set analysis and the gadget census of every image from scratch. Its
// bodies are kept verbatim, only renamed (refVerify, refVerifyPatches,
// refDiffRange), so the equivalence tests, the patch-diff test and
// FuzzBaseVerify hold the indexed diff and the cached handle to the
// code they replaced. remapper is the address mapping they share. The
// changes since, each matching one in the indexed diff: refDiffRange
// compares a conditional branch's status flag once its target checks
// out, and reports a transfer onto the target word of a jmp/call into
// a block (refOperandWords); refVerifyPatches compares the data past
// the code region byte for byte between the pointer slots.
//
// auditGadgetsAgainst and gadgetIndex, the full-scan gadget census that
// scanned every randomized image, are kept verbatim too: refVerify
// calls them, and TestCensusMatchesFullScan holds the incremental
// census to them. RelocatedBlocks and graphLayout, which only a
// verifier that recovers a randomized image's own graph needs, moved
// here from the package.

// RelocatedBlocks maps the preprocessed block list through a
// randomization outcome: the same functions at their new starts, sorted
// by new address.
func RelocatedBlocks(pre *core.Preprocessed, r *core.Randomized) []core.Block {
	out := make([]core.Block, len(pre.Blocks))
	for i, b := range pre.Blocks {
		out[i] = core.Block{Name: b.Name, Start: r.NewStart[i], Size: b.Size}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// graphLayout is the layout of an analysis run directly on the image a
// graph was recovered from.
func graphLayout(img []byte, g *Graph) vsaLayout {
	return vsaLayout{
		img:     img,
		name:    func(i int) string { return g.Funcs[i].Name },
		start:   func(i int) uint32 { return g.Funcs[i].Start },
		entries: g.EntryTargets,
	}
}

// remapper rebuilds the address mapping a randomization outcome
// applied: old byte address -> new byte address.
func remapper(pre *core.Preprocessed, r *core.Randomized) func(uint32) uint32 {
	return func(old uint32) uint32 {
		i := pre.BlockIndex(old)
		if i < 0 {
			return old
		}
		return r.NewStart[i] + (old - pre.Blocks[i].Start)
	}
}

// refVerify runs the full static verification of one randomization
// outcome: CFG recovery over the randomized image, the
// patch-completeness diff against the original, and (per opts) the
// residual gadget audit.
func refVerify(pre *core.Preprocessed, r *core.Randomized, opts Options) *Report {
	rep := &Report{
		Blocks:      len(pre.Blocks),
		RegionStart: pre.RegionStart,
		RegionEnd:   pre.RegionEnd,
	}

	diffFindings, diffStats := refVerifyPatches(pre, r)
	rep.Diff = diffStats

	var graphFindings, vsaFindings []Finding
	demote := false
	if len(r.Image) == len(pre.Image) {
		g := Recover(r.Image, RelocatedBlocks(pre, r), pre.RegionStart, pre.RegionEnd)
		rep.CFG = CFGStats{
			Funcs:           len(g.Funcs),
			BasicBlocks:     g.BasicBlockCount(),
			CallEdges:       g.CallEdgeCount(),
			IndirectSites:   g.IndirectSiteCount(),
			IndirectTargets: len(g.EntryTargets),
		}
		for _, f := range g.Funcs {
			rep.CFG.Instrs += f.Instrs
		}
		graphFindings = g.Findings
		if opts.VSA {
			res := vsa.Analyze(VSAInput(r.Image, g, pre))
			rep.VSA, vsaFindings, demote = renderVSA(res, graphLayout(r.Image, g))
		}
	}

	// The diff and the CFG both flag spm/undecodable sites; keep one
	// finding per (kind, addr).
	seen := make(map[string]bool, len(diffFindings))
	add := func(fs []Finding) {
		for _, f := range fs {
			key := fmt.Sprintf("%s@%d@%s", f.Kind, f.Addr, f.Block)
			if seen[key] {
				continue
			}
			seen[key] = true
			rep.Findings = append(rep.Findings, f)
		}
	}
	add(diffFindings)
	add(graphFindings)
	add(vsaFindings)

	if opts.Gadgets {
		maxWords := opts.GadgetMaxWords
		if maxWords <= 0 {
			maxWords = 24
		}
		origGs := gadget.Scan(pre.Image, maxWords)
		audit, gfs := auditGadgetsAgainst(pre, r, maxWords, origGs, gadgetIndex(origGs), demote)
		rep.Gadgets = &audit
		rep.Findings = append(rep.Findings, gfs...)
	}

	sortFindings(rep.Findings)
	return rep
}

// refVerifyPatches proves patch-completeness of a randomization outcome:
// it walks the original and randomized images in lockstep and checks
// that every direct control transfer, vector entry and tabled function
// pointer was rewritten to exactly its relocated target — and that
// nothing else changed. The returned findings are empty iff the
// rewrite is provably complete and faithful.
func refVerifyPatches(pre *core.Preprocessed, r *core.Randomized) ([]Finding, DiffStats) {
	var findings []Finding
	var st DiffStats
	if len(r.Image) != len(pre.Image) {
		return []Finding{{
			Kind: KindSizeMismatch, Severity: SevError,
			Detail: fmt.Sprintf("randomized image is %d bytes, original %d", len(r.Image), len(pre.Image)),
		}}, st
	}
	remap := remapper(pre, r)
	operands := refOperandWords(pre)
	newStarts := make(map[uint32]bool, len(pre.Blocks))
	for i := range pre.Blocks {
		newStarts[r.NewStart[i]] = true
	}

	// The vector table occupies the first NumVectors two-word jmp slots;
	// defects there get their own kind since a missed vector entry fires
	// on the next interrupt, not the next call.
	vecEnd := uint32(firmware.NumVectors) * 4
	if vecEnd > pre.RegionStart {
		vecEnd = pre.RegionStart
	}

	// Fixed low-flash region: same location in both images, but targets
	// into moved blocks must be remapped.
	findings = append(findings, refDiffRange(pre.Image, r.Image, 0, 0, pre.RegionStart, "", vecEnd, remap, operands, &st)...)

	// Every relocated block, walked at its old and new location.
	for i, b := range pre.Blocks {
		findings = append(findings,
			refDiffRange(pre.Image, r.Image, b.Start, r.NewStart[i], b.Size, b.Name, vecEnd, remap, operands, &st)...)
	}

	// Data-section function pointers (16-bit word addresses).
	for _, off := range pre.PtrOffsets {
		if int(off)+1 >= len(pre.Image) {
			findings = append(findings, Finding{
				Kind: KindDanglingEdge, Severity: SevError, Addr: off,
				Detail: "function-pointer offset outside the image",
			})
			continue
		}
		st.PointersChecked++
		oldW := uint32(pre.Image[off]) | uint32(pre.Image[off+1])<<8
		newW := uint32(r.Image[off]) | uint32(r.Image[off+1])<<8
		want := remap(oldW*2) / 2
		if newW != want {
			findings = append(findings, Finding{
				Kind: KindUnpatchedPointer, Severity: SevError, Addr: off,
				Detail: fmt.Sprintf("pointer 0x%X should be 0x%X after relocation, found 0x%X",
					oldW*2, want*2, newW*2),
			})
			continue
		}
		if t := want * 2; !newStarts[t] && t >= pre.RegionStart {
			findings = append(findings, Finding{
				Kind: KindDanglingEdge, Severity: SevError, Addr: off,
				Detail: fmt.Sprintf("relocated pointer 0x%X is not a function entry", t),
			})
		} else if t < pre.RegionStart && operands[t] {
			findings = append(findings, Finding{
				Kind: KindDanglingEdge, Severity: SevError, Addr: off,
				Detail: fmt.Sprintf("pointer target 0x%X is the target word of a jmp/call the randomizer rewrites; what executes there differs per permutation", t),
			})
		}
	}

	// Data past the code region: each run of bytes between pointer
	// slots must be unchanged; a changed run is one finding, at its
	// first changed byte.
	slot := make(map[uint32]bool, 2*len(pre.PtrOffsets))
	for _, off := range pre.PtrOffsets {
		slot[off], slot[off+1] = true, true
	}
	for lo := pre.RegionEnd; lo < uint32(len(pre.Image)); {
		if slot[lo] {
			lo++
			continue
		}
		hi := lo
		for hi < uint32(len(pre.Image)) && !slot[hi] {
			hi++
		}
		for i := lo; i < hi; i++ {
			if pre.Image[i] != r.Image[i] {
				findings = append(findings, Finding{
					Kind: KindDataChanged, Severity: SevError, Addr: i,
					Detail: fmt.Sprintf("data byte 0x%02X changed to 0x%02X, the first change in [0x%X,0x%X)",
						pre.Image[i], r.Image[i], lo, hi),
				})
				break
			}
		}
		lo = hi
	}

	// Vector entries must land on relocated function entries (or fixed
	// code) in the new layout.
	for pc := uint32(0); pc*2 < vecEnd; pc += 2 {
		in := avr.DecodeAt(r.Image, pc)
		if in.Op != avr.OpJMP {
			continue
		}
		st.VectorsChecked++
		if t := in.Target * 2; !newStarts[t] && t >= pre.RegionStart {
			findings = append(findings, Finding{
				Kind: KindDanglingEdge, Severity: SevError, Addr: pc * 2,
				Detail: fmt.Sprintf("vector %d target 0x%X is not a function entry", pc/2, t),
			})
		}
	}
	return findings, st
}

// refOperandWords marks, by byte address, the second word of every
// jmp/call into a block in a linear decode of the original image's
// fixed region and blocks: the words the randomizer rewrites.
func refOperandWords(pre *core.Preprocessed) map[uint32]bool {
	words := make(map[uint32]bool)
	mark := func(start, size uint32) {
		for pc := start / 2; pc < (start+size)/2; {
			in := avr.DecodeAt(pre.Image, pc)
			if in.Op == avr.OpInvalid {
				return
			}
			if (in.Op == avr.OpJMP || in.Op == avr.OpCALL) && pre.BlockIndex(in.Target*2) >= 0 {
				words[(pc+1)*2] = true
			}
			pc += uint32(in.Words)
		}
	}
	mark(0, pre.RegionStart)
	for _, b := range pre.Blocks {
		mark(b.Start, b.Size)
	}
	return words
}

// refDiffRange lockstep-walks size bytes of code living at oldStart in the
// original image and newStart in the randomized one. block names the
// function ("" for the fixed region); vecEnd bounds the vector table in
// the fixed region; operands are refOperandWords.
func refDiffRange(orig, rnd []byte, oldStart, newStart, size uint32, block string, vecEnd uint32, remap func(uint32) uint32, operands map[uint32]bool, st *DiffStats) []Finding {
	var findings []Finding
	oldW, newW := oldStart/2, newStart/2
	endW := size / 2
	for pc := uint32(0); pc < endW; {
		oin := avr.DecodeAt(orig, oldW+pc)
		nin := avr.DecodeAt(rnd, newW+pc)
		addr := (newW + pc) * 2
		if oin.Op == avr.OpInvalid {
			findings = append(findings, Finding{
				Kind: KindUndecodable, Severity: SevError, Addr: addr, Block: block,
				Detail: "original instruction stream does not decode; diff truncated here",
			})
			return findings
		}
		if oin.Op != nin.Op || oin.Words != nin.Words {
			findings = append(findings, Finding{
				Kind: KindOpcodeMismatch, Severity: SevError, Addr: addr, Block: block,
				Detail: fmt.Sprintf("instruction changed from %s to %s; streams diverged, diff truncated here",
					oin.Op, nin.Op),
			})
			return findings
		}
		st.WordsCompared += oin.Words
		kind := KindUnpatchedTransfer
		if block == "" && addr < vecEnd {
			kind = KindUnpatchedVector
		}

		switch oin.Op {
		case avr.OpJMP, avr.OpCALL:
			st.TransfersChecked++
			want := remap(oin.Target * 2)
			if got := nin.Target * 2; got != want {
				findings = append(findings, Finding{
					Kind: kind, Severity: SevError, Addr: addr, Block: block,
					Detail: fmt.Sprintf("%s 0x%X should be patched to 0x%X, found 0x%X",
						oin.Op, oin.Target*2, want, got),
				})
			} else if avr.DecodeAt(rnd, want/2).Op == avr.OpInvalid {
				findings = append(findings, Finding{
					Kind: KindDanglingEdge, Severity: SevError, Addr: addr, Block: block,
					Detail: fmt.Sprintf("patched %s target 0x%X does not decode", oin.Op, want),
				})
			} else if operands[oin.Target*2] {
				findings = append(findings, Finding{
					Kind: KindDanglingEdge, Severity: SevError, Addr: addr, Block: block,
					Detail: fmt.Sprintf("%s target 0x%X is the target word of a jmp/call the randomizer rewrites; what executes there differs per permutation",
						oin.Op, want),
				})
			}
		case avr.OpRJMP, avr.OpRCALL, avr.OpBRBS, avr.OpBRBC:
			st.TransfersChecked++
			oldAbs := uint32(int64(oldW+pc)+1+int64(oin.K)) * 2
			newAbs := uint32(int64(newW+pc)+1+int64(nin.K)) * 2
			if want := remap(oldAbs); newAbs != want {
				findings = append(findings, Finding{
					Kind: kind, Severity: SevError, Addr: addr, Block: block,
					Detail: fmt.Sprintf("%s to 0x%X should reach 0x%X after relocation, found 0x%X",
						oin.Op, oldAbs, want, newAbs),
				})
			} else if oin.D != nin.D {
				findings = append(findings, Finding{
					Kind: KindOpcodeMismatch, Severity: SevError, Addr: addr, Block: block,
					Detail: fmt.Sprintf("%s condition changed from flag %c to flag %c",
						oin.Op, sregFlags[oin.D], sregFlags[nin.D]),
				})
			} else if operands[oldAbs] {
				findings = append(findings, Finding{
					Kind: KindDanglingEdge, Severity: SevError, Addr: addr, Block: block,
					Detail: fmt.Sprintf("%s target 0x%X is the target word of a jmp/call the randomizer rewrites; what executes there differs per permutation",
						oin.Op, newAbs),
				})
			}
		case avr.OpSPM:
			findings = append(findings, Finding{
				Kind: KindUnverifiableSPM, Severity: SevError, Addr: addr, Block: block,
				Detail: "spm inside verified region: self-modifying code cannot be proven patch-complete",
			})
		default:
			// Everything else must be byte-identical.
			same := wordAt(orig, oldW+pc) == wordAt(rnd, newW+pc)
			if oin.Words == 2 {
				same = same && wordAt(orig, oldW+pc+1) == wordAt(rnd, newW+pc+1)
			}
			if !same {
				findings = append(findings, Finding{
					Kind: KindOpcodeMismatch, Severity: SevError, Addr: addr, Block: block,
					Detail: fmt.Sprintf("%s operands changed; streams diverged, diff truncated here", oin.Op),
				})
				return findings
			}
		}
		pc += uint32(oin.Words)
	}
	return findings
}

// gadgetIndex maps a scan result by gadget start address.
func gadgetIndex(gs []*gadget.Gadget) map[uint32]*gadget.Gadget {
	at := make(map[uint32]*gadget.Gadget, len(gs))
	for _, g := range gs {
		at[g.Addr] = g
	}
	return at
}

// auditGadgetsAgainst is AuditGadgets with the original-image scan
// supplied by the caller, so a Base can amortize it across every
// permutation of its base image, clean or defective.
//
// demote re-ranks in-region stable-gadget findings from warning to
// info. The caller sets it when value-set analysis proved every
// indirect site resolves to legitimate entries: no
// attacker-influencable indirect edge can land on a gadget, so a
// stable gadget's reachability depends on a separately-mitigated
// stack-corruption primitive and is informational, not a rewriter
// defect.
func auditGadgetsAgainst(pre *core.Preprocessed, r *core.Randomized, maxWords int, origGs []*gadget.Gadget, origAt map[uint32]*gadget.Gadget, demote bool) (GadgetAudit, []Finding) {
	var audit GadgetAudit
	var findings []Finding

	stableSev := SevWarn
	stableSuffix := ""
	if demote {
		stableSev = SevInfo
		stableSuffix = "; unreachable from any resolved indirect edge"
	}
	randGs := gadget.Scan(r.Image, maxWords)
	audit.Orig, audit.Rand = len(origGs), len(randGs)
	fixedStable := 0
	emitted := 0
	for _, g := range randGs {
		og, ok := origAt[g.Addr]
		if !ok {
			continue
		}
		lo, hi := int(g.Addr)*2, (int(g.Addr)+g.Words())*2
		if hi > len(r.Image) || og.Words() != g.Words() ||
			!bytes.Equal(pre.Image[lo:hi], r.Image[lo:hi]) {
			continue
		}
		audit.Stable++
		byteAddr := g.Addr * 2
		if byteAddr >= pre.RegionStart && byteAddr < pre.RegionEnd {
			audit.StableInRegion++
			if emitted < maxStableFindings {
				emitted++
				findings = append(findings, Finding{
					Kind: KindStableGadget, Severity: stableSev, Addr: byteAddr,
					Detail: fmt.Sprintf("%s gadget (%d instrs) survives randomization unchanged inside the shuffled region%s",
						g.Kind, len(g.Instrs), stableSuffix),
				})
			}
		} else {
			fixedStable++
		}
	}
	if over := audit.StableInRegion - emitted; over > 0 {
		findings = append(findings, Finding{
			Kind: KindStableGadget, Severity: stableSev,
			Detail: fmt.Sprintf("... and %d more stable gadgets in the shuffled region", over),
		})
	}
	if fixedStable > 0 {
		findings = append(findings, Finding{
			Kind: KindStableGadget, Severity: SevInfo,
			Detail: fmt.Sprintf("%d gadgets in fixed regions (vectors/stubs/data/calibration) survive every randomization; they are firmware invariants, not rewriter defects", fixedStable),
		})
	}
	return audit, findings
}
