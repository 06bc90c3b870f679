package vsa

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mavr/internal/avr"
)

// Input mirrors the recovered CFG in neutral types so this package
// does not import the verifier that drives it.
type Input struct {
	// Img is the flash image the functions were decoded from.
	Img []byte
	// RegionStart/RegionEnd delimit the shuffleable code region.
	RegionStart, RegionEnd uint32
	Funcs                  []Func
	Tables                 []Table
	// Patched lists flash byte offsets of 16-bit words the pointer
	// patcher rewrites per permutation.
	Patched []uint32
}

// Func is one function's basic blocks (byte addresses).
type Func struct {
	Name       string
	Start, End uint32
	Blocks     []Block
	// HasSPM excludes the function: self-modifying code invalidates
	// the analysis' image assumptions.
	HasSPM bool
	// Code is the function's linear decode as CFG recovery computed
	// it, indexed by word offset from Start (Words == 0 where no
	// instruction starts). The analysis decodes any other word it
	// visits from Img; nil is valid.
	Code []avr.Instr
}

// Block is one basic block with its intra-function successors.
type Block struct {
	Start, End uint32
	Succs      []uint32
}

// Table is one validated function-pointer table.
type Table struct {
	DataAddr, FlashOff, Words uint32
}

// Result is a whole-image analysis. Every address in it is relative to
// its function's start, every Detail string is address-free, and no
// flash byte below RegionEnd shapes it, so a result computed on the
// base image translates exactly to any permutation the patch diff
// passes (the cached verifier).
type Result struct {
	Funcs []FuncResult
	Sites []Site
}

// FuncResult is the per-function stack-discipline verdict.
type FuncResult struct {
	Name string
	// StackProven: every path to every RET was shown to balance
	// pushes/pops and calls exactly, with no SP escape.
	StackProven bool
	// Skipped: the function was excluded (SPM).
	Skipped  bool
	Findings []Finding
}

// Finding is one structured stack-discipline problem.
type Finding struct {
	// Off is the instruction's byte offset relative to the function
	// start.
	Off    uint32
	Kind   string
	Detail string
}

// Stack finding kinds.
const (
	KindRetImbalance   = "ret-imbalance"
	KindStackUnproven  = "stack-unproven"
	KindSPEscape       = "sp-escape"
	KindStackUnderflow = "stack-underflow"
)

// Site is one indirect control transfer and what the analysis proved
// about its target pointer.
type Site struct {
	FuncIdx int
	// Off is the instruction's byte offset relative to the function
	// start.
	Off  uint32
	Op   avr.Op
	Call bool
	// Resolved: the target pointer provably comes from an enumerable
	// source. Words, when non-nil, lists flash byte offsets whose
	// little-endian word the pointer provably equals (matched-pair
	// provenance — exact); otherwise Lo/Hi describe the pointer halves
	// independently and Targets takes their cross product.
	Resolved bool
	Words    []uint32 `json:"words,omitempty"`
	Lo, Hi   HalfSource
}

// HalfSource describes one half of a resolved 16-bit code pointer:
// either bytes read from specific flash offsets of the verified image
// (table provenance — exact even for patched table words), or an
// explicit byte set.
type HalfSource struct {
	Offs []uint32 `json:"offs,omitempty"`
	Set  []byte   `json:"set,omitempty"`
}

// Caps on site resolution: a site stays unresolved rather than carry
// an absurdly large proven set.
const (
	siteHalfCap    = 64
	siteProductCap = 256
)

// Analyze runs the value-set fixpoint over every function. The
// per-function fixpoints are independent, so they run on
// runtime.GOMAXPROCS(0) goroutines (see analyzeSharded); the Result is
// the same at every shard count.
func Analyze(in *Input) *Result {
	return analyzeSharded(in, runtime.GOMAXPROCS(0))
}

// analyzeSharded runs Analyze on an explicit number of shards (tests
// pin it). Shards claim functions from a shared counter, each with its
// own Ctx and scratch state: the image, tables and patched set are
// read-only, and everything a function's analysis writes — its
// findings and sites — is shard-local. Function results land in their
// function-index slot, so neither the shard count nor the schedule can
// change the Result.
func analyzeSharded(in *Input, shards int) *Result {
	shards = max(1, min(shards, len(in.Funcs)))
	var patched bitset
	if len(in.Patched) > 0 {
		patched = newBitset(len(in.Img))
		for _, off := range in.Patched {
			patched.set(off)
			patched.set(off + 1)
		}
	}
	funcs := make([]FuncResult, len(in.Funcs))
	sites := make([][]Site, len(in.Funcs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := &funcAnalyzer{ctx: &Ctx{
				Img:         in.Img,
				RegionStart: in.RegionStart,
				RegionEnd:   in.RegionEnd,
				Tables:      in.Tables,
				patched:     patched,
			}}
			for fi := int(next.Add(1) - 1); fi < len(in.Funcs); fi = int(next.Add(1) - 1) {
				f := &in.Funcs[fi]
				if f.HasSPM || len(f.Blocks) == 0 {
					funcs[fi] = FuncResult{Name: f.Name, Skipped: true}
					continue
				}
				funcs[fi], sites[fi] = a.run(f, fi)
			}
		}()
	}
	wg.Wait()

	res := &Result{}
	if len(funcs) > 0 {
		res.Funcs = funcs
	}
	for _, s := range sites {
		res.Sites = append(res.Sites, s...)
	}
	return res
}

// bitset is a set of flash byte offsets below a fixed bound.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// set adds i; offsets past the bound are ignored.
func (b bitset) set(i uint32) {
	if w := int(i / 64); w < len(b) {
		b[w] |= 1 << (i % 64)
	}
}

func (b bitset) has(i uint32) bool {
	w := int(i / 64)
	return w < len(b) && b[w]&(1<<(i%64)) != 0
}

// funcAnalyzer runs one shard's functions, one at a time. Its buffers
// are sized to the largest function seen and reused, so a block visit
// copies a state instead of allocating one.
type funcAnalyzer struct {
	ctx    *Ctx
	f      *Func
	fi     int
	startW uint32

	states  []State // fixpoint in-state per block
	visits  []int
	queued  []bool
	queue   []int
	scratch State
	// blockAt maps a byte address minus blockLo to 1 + the index of the
	// block starting there (0: none).
	blockAt []int32
	blockLo uint32

	// Reporting-pass output.
	sites           []Site
	hasIndirectJump bool
}

func (a *funcAnalyzer) run(f *Func, fi int) (FuncResult, []Site) {
	a.f, a.fi, a.startW = f, fi, f.Start/2
	n := len(f.Blocks)
	if cap(a.states) < n {
		a.states = make([]State, n)
		a.visits = make([]int, n)
		a.queued = make([]bool, n)
	}
	a.states, a.visits, a.queued = a.states[:n], a.visits[:n], a.queued[:n]
	for i := range a.states {
		a.states[i] = State{Bot: true}
		a.visits[i] = 0
		a.queued[i] = false
	}
	a.indexBlocks()
	defer a.clearBlockIndex()

	// The entry block starts the function; blocks only reachable
	// through an indirect jump stay bottom and are skipped — the
	// function is then reported unproven below.
	entry := 0
	for i, b := range f.Blocks {
		if b.Start == f.Start {
			entry = i
			break
		}
	}
	a.states[entry] = entryState()

	out := &a.scratch
	queue := append(a.queue[:0], entry)
	a.queued[entry] = true
	for h := 0; h < len(queue); h++ {
		bi := queue[h]
		a.queued[bi] = false
		*out = a.states[bi]
		a.walk(bi, out)
		for _, s := range f.Blocks[bi].Succs {
			si := a.blockIndex(s)
			if si < 0 {
				continue
			}
			a.visits[si]++
			if a.states[si].Join(out, a.visits[si] > visitCap) && !a.queued[si] {
				queue = append(queue, si)
				a.queued[si] = true
			}
		}
	}
	a.queue = queue

	// Reporting pass: every block once more from its fixed in-state,
	// now collecting findings and site descriptors.
	c := a.ctx
	c.report = true
	a.sites, a.hasIndirectJump = nil, false
	for bi := range f.Blocks {
		if a.states[bi].Bot {
			continue
		}
		*out = a.states[bi]
		a.walk(bi, out)
	}
	fr := FuncResult{Name: f.Name, Findings: c.findings}
	sites := a.sites
	c.report, c.findings, a.sites = false, nil, nil

	sort.Slice(fr.Findings, func(i, j int) bool {
		if fr.Findings[i].Off != fr.Findings[j].Off {
			return fr.Findings[i].Off < fr.Findings[j].Off
		}
		return fr.Findings[i].Kind < fr.Findings[j].Kind
	})
	fr.Findings = dedupFindings(fr.Findings)
	sort.Slice(sites, func(i, j int) bool { return sites[i].Off < sites[j].Off })

	fr.StackProven = len(fr.Findings) == 0 && !a.hasIndirectJump
	if a.hasIndirectJump && len(fr.Findings) == 0 {
		fr.Findings = append(fr.Findings, Finding{
			Kind:   KindStackUnproven,
			Detail: "function exits through an indirect jump; per-function stack reasoning is incomplete",
		})
	}
	return fr, sites
}

// indexBlocks fills blockAt for the current function. When two blocks
// share a start the later one wins.
func (a *funcAnalyzer) indexBlocks() {
	lo, hi := a.f.Blocks[0].Start, a.f.Blocks[0].Start
	for _, b := range a.f.Blocks {
		lo, hi = min(lo, b.Start), max(hi, b.Start)
	}
	if n := int(hi-lo) + 1; len(a.blockAt) < n {
		a.blockAt = make([]int32, n)
	}
	a.blockLo = lo
	for i, b := range a.f.Blocks {
		a.blockAt[b.Start-lo] = int32(i + 1)
	}
}

// clearBlockIndex zeroes the entries indexBlocks wrote.
func (a *funcAnalyzer) clearBlockIndex() {
	for _, b := range a.f.Blocks {
		a.blockAt[b.Start-a.blockLo] = 0
	}
}

// blockIndex returns the index of the block starting at byte address
// addr, or -1.
func (a *funcAnalyzer) blockIndex(addr uint32) int {
	if i := addr - a.blockLo; i < uint32(len(a.blockAt)) {
		return int(a.blockAt[i]) - 1
	}
	return -1
}

// instrAt returns the instruction at word pc: from the function's
// pre-decoded Code where it has one, decoded from the image otherwise.
func (a *funcAnalyzer) instrAt(pc uint32) avr.Instr {
	if i := pc - a.startW; i < uint32(len(a.f.Code)) && a.f.Code[i].Words != 0 {
		return a.f.Code[i]
	}
	return avr.DecodeAt(a.ctx.Img, pc)
}

func dedupFindings(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i == 0 || f != out[len(out)-1] {
			out = append(out, f)
		}
	}
	return out
}

// walk abstractly executes one block. In the reporting pass
// (ctx.report) it also records findings and site descriptors.
func (a *funcAnalyzer) walk(bi int, st *State) {
	c := a.ctx
	b := a.f.Blocks[bi]
	pc := b.Start / 2
	end := b.End / 2
	for pc < end {
		in := a.instrAt(pc)
		addr := pc * 2
		c.off = addr - a.f.Start
		switch in.Op {
		case avr.OpICALL, avr.OpEICALL, avr.OpIJMP, avr.OpEIJMP:
			if c.report {
				if in.Op == avr.OpIJMP || in.Op == avr.OpEIJMP {
					a.hasIndirectJump = true
				}
				a.sites = append(a.sites, a.resolveSite(st, in, addr))
			}
			if in.Op == avr.OpICALL || in.Op == avr.OpEICALL {
				c.Step(st, in)
			}
		case avr.OpRET, avr.OpRETI:
			if c.report {
				c.checkRet(st)
			}
		case avr.OpSUBI:
			// Fused SUBI+SBCI on an SP-tagged pair: the pair moves by
			// the exact signed 16-bit immediate, so the tag survives
			// with an adjusted delta (frame allocate/release idiom).
			tag := st.Tags[in.D/2]
			fused := tag.Ok && in.D%2 == 0 && pc+1 < end
			var next avr.Instr
			if fused {
				next = a.instrAt(pc + 1)
				fused = next.Op == avr.OpSBCI && next.D == in.D+1
			}
			c.Step(st, in)
			if fused {
				c.Step(st, next)
				imm := int32(int16(uint16(next.K)<<8 | uint16(in.K)))
				tag.Delta = tag.Delta.Add(imm)
				st.Tags[in.D/2] = tag
				pc += uint32(in.Words) + uint32(next.Words)
				continue
			}
		default:
			if n := a.tryWordPair(st, in, pc, end); n > 0 {
				pc += n
				continue
			}
			c.Step(st, in)
		}
		pc += uint32(in.Words)
	}
}

// tryWordPair recognizes the two-instruction adjacent-load idioms that
// prove a register pair holds one little-endian word of a table:
//
//	ld  rd, P+  ; ld  rd+1, P      (or a second post-increment)
//	ldd rd, P+q ; ldd rd+1, P+q+1
//	lpm rd, Z+  ; lpm rd+1, Z(+)
//
// The second load's address is the first's plus one by construction
// (the post-increment or displacement is on the same base pointer), so
// the matched lo/hi correlation holds on every execution — which the
// independent per-half sets cannot express. Both instructions are
// stepped normally and the matched-word provenance is recorded on top;
// returns the words consumed, or 0 when the pattern does not apply.
func (a *funcAnalyzer) tryWordPair(st *State, in avr.Instr, pc, end uint32) uint32 {
	d := in.D
	if d%2 != 0 || pc+uint32(in.Words) >= end {
		return 0
	}
	next := a.instrAt(pc + uint32(in.Words))
	if next.D != d+1 || pc+uint32(in.Words)+uint32(next.Words) > end {
		return 0
	}
	var offs []uint32
	switch in.Op {
	case avr.OpLDXInc, avr.OpLDYInc, avr.OpLDZInc:
		var ptr int
		var second bool
		switch in.Op {
		case avr.OpLDXInc:
			ptr = avr.RegXL
			second = next.Op == avr.OpLDX || next.Op == avr.OpLDXInc
		case avr.OpLDYInc:
			ptr = avr.RegYL
			second = next.Op == avr.OpLDYInc || (next.Op == avr.OpLDDY && next.Q == 0)
		default:
			ptr = avr.RegZL
			second = next.Op == avr.OpLDZInc || (next.Op == avr.OpLDDZ && next.Q == 0)
		}
		if !second || d == ptr {
			return 0
		}
		offs = a.ctx.wordOffs(st.pairAddrs(ptr))
	case avr.OpLDDY, avr.OpLDDZ:
		ptr := avr.RegYL
		if in.Op == avr.OpLDDZ {
			ptr = avr.RegZL
		}
		if next.Op != in.Op || next.Q != in.Q+1 || d == ptr {
			return 0
		}
		offs = a.ctx.wordOffs(offsetAddrs(st.pairAddrs(ptr), uint16(in.Q)))
	case avr.OpLPMZInc:
		if (next.Op != avr.OpLPMZ && next.Op != avr.OpLPMZInc) || d == avr.RegZL {
			return 0
		}
		offs = a.ctx.flashWordOffs(st.pairAddrs(avr.RegZL))
	default:
		return 0
	}
	a.ctx.Step(st, in)
	a.ctx.Step(st, next)
	if offs != nil && len(offs) <= siteHalfCap {
		st.Words[d/2] = offs
	}
	return uint32(in.Words) + uint32(next.Words)
}

// checkRet verifies the stack height at a return: RET must see exactly
// the entry height (the return address it pops is the caller's).
func (c *Ctx) checkRet(st *State) {
	switch {
	case st.H.IsZero():
	case st.H.Top:
		c.finding(KindStackUnproven, "stack height unknown at return (SP re-pointed or loop widened)")
	default:
		c.finding(KindRetImbalance,
			fmt.Sprintf("return with %s bytes left on the frame; RET will pop the wrong return address", heightStr(st.H)))
	}
}

func heightStr(h Height) string {
	if h.Singleton() {
		return fmt.Sprintf("%d", h.Lo)
	}
	return fmt.Sprintf("[%d,%d]", h.Lo, h.Hi)
}

// resolveSite captures what the abstract state proves about an
// indirect transfer's target pointer.
func (a *funcAnalyzer) resolveSite(st *State, in avr.Instr, addr uint32) Site {
	s := Site{
		FuncIdx: a.fi,
		Off:     addr - a.f.Start,
		Op:      in.Op,
		Call:    in.Op == avr.OpICALL || in.Op == avr.OpEICALL,
	}
	if in.Op == avr.OpEICALL || in.Op == avr.OpEIJMP {
		// Extended transfers prepend EIND bit 0; only a proven-zero
		// EIND reduces them to the 16-bit case.
		eind := st.EIND
		if eind.IsTop() || eind.Size() != 1 || !eind.Has(0) {
			return s
		}
	}
	if w := st.Words[avr.RegZL/2]; w != nil && len(w) <= siteHalfCap {
		s.Resolved = true
		s.Words = w
		return s
	}
	lo, okL := halfSource(st.Regs[avr.RegZL])
	hi, okH := halfSource(st.Regs[avr.RegZL+1])
	if !okL || !okH || halfSize(lo)*halfSize(hi) > siteProductCap {
		return s
	}
	s.Resolved = true
	s.Lo, s.Hi = lo, hi
	return s
}

func halfSource(v Val) (HalfSource, bool) {
	if v.Tab != nil && len(v.Tab) <= siteHalfCap {
		return HalfSource{Offs: v.Tab}, true
	}
	if !v.Set.IsTop() && v.Set.Size() <= siteHalfCap && !v.Set.IsEmpty() {
		return HalfSource{Set: v.Set.Values()}, true
	}
	return HalfSource{}, false
}

func halfSize(h HalfSource) int {
	if h.Offs != nil {
		return len(h.Offs)
	}
	return len(h.Set)
}
