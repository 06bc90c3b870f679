package staticverify

import (
	"fmt"
	"sort"

	"mavr/internal/avr"
	"mavr/internal/core"
)

// TermKind says how a basic block ends.
type TermKind int

// Basic-block terminators.
const (
	// TermFall: execution continues into the next block.
	TermFall TermKind = iota + 1
	// TermJump: unconditional jmp/rjmp.
	TermJump
	// TermBranch: conditional branch (taken + fallthrough successors).
	TermBranch
	// TermSkip: cpse/sbrc/sbrs/sbic/sbis (skip + fallthrough successors).
	TermSkip
	// TermRet: ret/reti.
	TermRet
	// TermIndirect: ijmp/eijmp — successors over-approximated.
	TermIndirect
	// TermStop: decoding could not continue (invalid opcode, function
	// end overrun).
	TermStop
)

// BasicBlock is a maximal straight-line run of instructions. Addresses
// are byte addresses into the image the graph was recovered from.
type BasicBlock struct {
	Start, End uint32
	// Succs are the byte addresses of intra-function successor blocks.
	Succs []uint32
	Term  TermKind
}

// Func is the recovered control-flow graph of one function block.
type Func struct {
	Name       string
	Start, End uint32
	Blocks     []BasicBlock
	// Calls are callee entry byte addresses reached by direct
	// call/rcall or tail jumps out of the function, deduplicated.
	Calls []uint32
	// IndirectSites counts icall/eicall/ijmp/eijmp instructions; their
	// target set is over-approximated by Graph.EntryTargets.
	IndirectSites int
	// HasSPM marks the function self-modifying and unverifiable.
	HasSPM bool
	// Instrs counts decoded instructions.
	Instrs int

	// region is the linear decode of the function extent, shared with
	// the patch diff's index and the value-set analysis.
	region baseRegion
}

// Graph is a conservative whole-image CFG and call graph.
type Graph struct {
	RegionStart, RegionEnd uint32
	Funcs                  []*Func
	// FixedEntries are instruction starts in the fixed low-flash region
	// (interrupt vectors and dispatch stubs), byte addresses.
	FixedEntries []uint32
	// EntryTargets is the indirect-edge over-approximation: every
	// function entry plus every fixed entry. Nil when the image has no
	// indirect sites.
	EntryTargets []uint32
	// Findings are structural problems discovered during recovery.
	Findings []Finding
	// found holds Findings in the form that translates to any
	// permutation of the image.
	found []cfgFinding
}

// cfgFinding is one recovery finding as a permutation of its image
// would report it: the index of the function it belongs to (-1 in the
// fixed region), whose relocation moves its address, and the transfer
// target its detail names, if any, which the permutation remaps.
type cfgFinding struct {
	Finding
	fn int
	// named: Detail is a format with one %X verb, for target.
	named  bool
	target uint32
}

// at renders the finding with its address moved by delta and its
// target mapped through remap.
func (f cfgFinding) at(delta uint32, remap func(uint32) uint32) Finding {
	out := f.Finding
	out.Addr += delta
	if f.named {
		out.Detail = fmt.Sprintf(f.Detail, remap(f.target))
	}
	return out
}

// Recover builds the conservative CFG of img. blocks must be the
// function blocks tiling [regionStart, regionEnd) in this image. Code
// below regionStart is the fixed vector/stub region; bytes at regionEnd
// and above are opaque data.
func Recover(img []byte, blocks []core.Block, regionStart, regionEnd uint32) *Graph {
	g := &Graph{RegionStart: regionStart, RegionEnd: regionEnd}

	entries := make(map[uint32]bool, len(blocks))
	for _, b := range blocks {
		entries[b.Start] = true
	}

	// The fixed region is a run of 2-word jmp slots (vector table and
	// dispatch stubs); every decoded instruction start is an entry an
	// indirect transfer may legitimately reach.
	for pc := uint32(0); pc*2 < regionStart; {
		in := avr.DecodeAt(img, pc)
		g.FixedEntries = append(g.FixedEntries, pc*2)
		if in.Op == avr.OpInvalid {
			g.found = append(g.found, cfgFinding{fn: -1, Finding: Finding{
				Kind: KindUndecodable, Severity: SevError, Addr: pc * 2,
				Detail: "invalid opcode in fixed vector/stub region",
			}})
			break
		}
		pc += uint32(in.Words)
	}

	indirect := 0
	for i, b := range blocks {
		fn, fs := recoverFunc(img, b, i, entries, regionStart, regionEnd)
		g.Funcs = append(g.Funcs, fn)
		g.found = append(g.found, fs...)
		indirect += fn.IndirectSites
	}
	for _, f := range g.found {
		g.Findings = append(g.Findings, f.at(0, func(t uint32) uint32 { return t }))
	}
	if indirect > 0 {
		g.EntryTargets = append(g.EntryTargets, g.FixedEntries...)
		for _, b := range blocks {
			g.EntryTargets = append(g.EntryTargets, b.Start)
		}
		sort.Slice(g.EntryTargets, func(i, j int) bool { return g.EntryTargets[i] < g.EntryTargets[j] })
	}
	return g
}

// recoverFunc linearly decodes one function extent, the fi-th block,
// and structures it into basic blocks. The linear walk is sound on
// AVR: instruction streams are word-aligned and cannot overlap within a
// function the assembler emitted.
func recoverFunc(img []byte, b core.Block, fi int, entries map[uint32]bool, regionStart, regionEnd uint32) (*Func, []cfgFinding) {
	fn := &Func{Name: b.Name, Start: b.Start, End: b.End()}
	var findings []cfgFinding
	add := func(kind Kind, sev Severity, addr uint32, detail string) *cfgFinding {
		findings = append(findings, cfgFinding{fn: fi, Finding: Finding{
			Kind: kind, Severity: sev, Addr: addr, Block: b.Name, Detail: detail,
		}})
		return &findings[len(findings)-1]
	}
	// addTarget reports a finding whose detail names transfer target t
	// through format.
	addTarget := func(kind Kind, sev Severity, addr uint32, format string, t uint32) {
		f := add(kind, sev, addr, format)
		f.named, f.target = true, t
	}
	startW, endW := b.Start/2, b.End()/2

	callSeen := make(map[uint32]bool)
	addCall := func(t uint32) {
		if !callSeen[t] {
			callSeen[t] = true
			fn.Calls = append(fn.Calls, t)
		}
	}
	// checkTarget validates one direct edge target (byte address) and
	// classifies cross-function destinations.
	checkTarget := func(pc uint32, t uint32, isCall bool) {
		switch {
		case t >= regionEnd || int(t) >= len(img):
			addTarget(KindDanglingEdge, SevError, pc*2, "transfer target 0x%X is outside the code region", t)
			return
		case avr.DecodeAt(img, t/2).Op == avr.OpInvalid:
			addTarget(KindDanglingEdge, SevError, pc*2, "transfer target 0x%X does not decode", t)
			return
		}
		if t >= b.Start && t < b.End() {
			return // intra-function edge
		}
		if entries[t] || t < regionStart {
			addCall(t) // direct call, or tail transfer, to an entry
			return
		}
		format := "jump into function interior at 0x%X"
		if isCall {
			format = "call into function interior at 0x%X"
		}
		addTarget(KindInteriorTarget, SevWarn, pc*2, format, t)
	}

	// checkExtended flags EIND-extended indirect transfers on images
	// whose code extends past what a 16-bit Z word address reaches: the
	// eijmp/eicall target then depends on EIND, which the entry-target
	// over-approximation does not model, so the target set would be
	// silently truncated unless it surfaces as a finding. Plain
	// ijmp/icall stay clean — they reach only the low 128 KiB, so the
	// entry-target set merely over-approximates them.
	checkExtended := func(pc uint32, op avr.Op) {
		if op != avr.OpEIJMP && op != avr.OpEICALL {
			return
		}
		if len(img) <= zReachBytes {
			return
		}
		add(KindDanglingEdge, SevWarn, pc*2, "image exceeds 128 KiB: "+op.String()+
			" target depends on EIND, which the entry-target approximation does not model")
	}

	// relWrap reports a relative transfer whose computed target leaves
	// addressable flash: the hardware would wrap the program counter
	// around the flash boundary, which no assembler-emitted
	// intra-image transfer does. Reported explicitly instead of letting
	// the uint32 conversion silently alias a wrapped address.
	relWrap := func(pc uint32, k int) {
		add(KindDanglingEdge, SevError, pc*2,
			fmt.Sprintf("relative transfer offset %+d words wraps around the flash boundary", k))
	}

	// Pass 1: decode linearly, collecting leaders and edges.
	// Every leader lies in [startW, endW].
	leaders := make([]bool, endW-startW+1)
	leaders[0] = true
	addLeader := func(w uint32) { leaders[w-startW] = true }
	fn.region = decodeRegion(img, b.Start, b.Size)
	code := fn.region.code
	pc := startW
	for pc < endW && code[pc-startW].Words != 0 {
		in := code[pc-startW]
		fn.Instrs++
		next := pc + uint32(in.Words)

		switch in.Op {
		case avr.OpBRBS, avr.OpBRBC, avr.OpRJMP:
			addLeader(next)
			t, ok := relTarget(pc, in.K)
			switch {
			case !ok:
				relWrap(pc, in.K)
			case t >= startW && t < endW:
				addLeader(t)
			default:
				checkTarget(pc, t*2, false)
			}
		case avr.OpJMP:
			addLeader(next)
			if in.Target >= startW && in.Target < endW {
				addLeader(in.Target)
			} else {
				checkTarget(pc, in.Target*2, false)
			}
		case avr.OpCALL:
			checkTarget(pc, in.Target*2, true)
		case avr.OpRCALL:
			if t, ok := relTarget(pc, in.K); ok {
				checkTarget(pc, t*2, true)
			} else {
				relWrap(pc, in.K)
			}
		case avr.OpRET, avr.OpRETI:
			addLeader(next)
		case avr.OpIJMP, avr.OpEIJMP:
			fn.IndirectSites++
			checkExtended(pc, in.Op)
			addLeader(next)
		case avr.OpICALL, avr.OpEICALL:
			fn.IndirectSites++
			checkExtended(pc, in.Op)
		case avr.OpCPSE, avr.OpSBRC, avr.OpSBRS, avr.OpSBIC, avr.OpSBIS:
			skip := next + uint32(avr.InstrWords(wordAt(img, next)))
			addLeader(next)
			if skip <= endW {
				addLeader(skip)
			}
		case avr.OpSPM:
			fn.HasSPM = true
			add(KindUnverifiableSPM, SevError, pc*2,
				"function contains spm: self-modifying flash region is statically unverifiable")
		}
		pc = next
	}
	truncated := uint32(0) // word address where decoding stopped, 0 = clean
	if !fn.region.clean {
		fn.Instrs++
		truncated = pc
		detail := "two-word instruction overruns the function extent"
		if avr.DecodeAt(img, pc).Op == avr.OpInvalid {
			detail = "invalid opcode inside function body; CFG truncated here"
		}
		add(KindUndecodable, SevError, pc*2, detail)
	}

	// Pass 2: cut basic blocks at leaders and terminators.
	var starts []uint32
	for i, ok := range leaders {
		if w := startW + uint32(i); ok && w < endW && (truncated == 0 || w <= truncated) {
			starts = append(starts, w)
		}
	}
	fn.Blocks = make([]BasicBlock, 0, len(starts))
	for i, lw := range starts {
		limit := endW
		if i+1 < len(starts) {
			limit = starts[i+1]
		}
		bb := BasicBlock{Start: lw * 2, Term: TermFall}
		pc := lw
		for pc < limit {
			in := code[pc-startW]
			if in.Words == 0 { // no linear instruction starts here (truncated)
				bb.Term = TermStop
				pc = limit
				break
			}
			pc += uint32(in.Words)
			stop := true
			switch in.Op {
			case avr.OpRET, avr.OpRETI:
				bb.Term = TermRet
			case avr.OpJMP:
				bb.Term = TermJump
				if in.Target >= startW && in.Target < endW {
					bb.Succs = append(bb.Succs, in.Target*2)
				}
			case avr.OpRJMP:
				bb.Term = TermJump
				if t, ok := relTarget(pc-uint32(in.Words), in.K); ok && t >= startW && t < endW {
					bb.Succs = append(bb.Succs, t*2)
				}
			case avr.OpBRBS, avr.OpBRBC:
				bb.Term = TermBranch
				bb.Succs = append(bb.Succs, pc*2)
				if t, ok := relTarget(pc-uint32(in.Words), in.K); ok && t >= startW && t < endW {
					bb.Succs = append(bb.Succs, t*2)
				}
			case avr.OpIJMP, avr.OpEIJMP:
				bb.Term = TermIndirect
			case avr.OpCPSE, avr.OpSBRC, avr.OpSBRS, avr.OpSBIC, avr.OpSBIS:
				bb.Term = TermSkip
				bb.Succs = append(bb.Succs, pc*2)
				if skip := pc + uint32(avr.InstrWords(wordAt(img, pc))); skip <= endW {
					bb.Succs = append(bb.Succs, skip*2)
				}
			default:
				stop = false
			}
			if stop {
				break
			}
		}
		bb.End = pc * 2
		if bb.Term == TermFall && pc < endW {
			bb.Succs = append(bb.Succs, pc*2)
		}
		fn.Blocks = append(fn.Blocks, bb)
	}
	if n := len(fn.Blocks); n > 0 && fn.Blocks[n-1].Term == TermFall {
		add(KindDanglingEdge, SevWarn, fn.Blocks[n-1].End, "execution falls through the end of the function")
	}

	sort.Slice(fn.Calls, func(i, j int) bool { return fn.Calls[i] < fn.Calls[j] })
	return fn, findings
}

// BasicBlockCount sums basic blocks across all functions.
func (g *Graph) BasicBlockCount() int {
	n := 0
	for _, f := range g.Funcs {
		n += len(f.Blocks)
	}
	return n
}

// CallEdgeCount sums direct call-graph edges.
func (g *Graph) CallEdgeCount() int {
	n := 0
	for _, f := range g.Funcs {
		n += len(f.Calls)
	}
	return n
}

// IndirectSiteCount sums icall/ijmp sites.
func (g *Graph) IndirectSiteCount() int {
	n := 0
	for _, f := range g.Funcs {
		n += f.IndirectSites
	}
	return n
}

// zReachBytes is how much flash a 16-bit Z word address reaches:
// ijmp/icall (and eijmp/eicall with EIND zero) land in the low 128 KiB.
const zReachBytes = 0x20000

// relTarget computes the word target of a relative transfer at word
// address pc with word offset k. ok is false when the target leaves
// addressable flash — the encoding wrapped around the flash boundary.
func relTarget(pc uint32, k int) (uint32, bool) {
	t := int64(pc) + 1 + int64(k)
	if t < 0 || t >= int64(avr.FlashWords) {
		return 0, false
	}
	return uint32(t), true
}

func wordAt(img []byte, w uint32) uint16 {
	i := int(w) * 2
	if i+1 >= len(img) {
		return 0xFFFF
	}
	return uint16(img[i]) | uint16(img[i+1])<<8
}
