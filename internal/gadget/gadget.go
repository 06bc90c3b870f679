// Package gadget implements the ROP-gadget discovery the MAVR paper's
// attacker performs on the unprotected application binary (§IV): a scan
// for ret-terminated instruction sequences, the role-based shapes in
// it (shapes.go), and among those the two specific gadgets the
// stealthy attack needs — stk_move (Fig. 4) and write_mem_gadget
// (Fig. 5).
//
// AVR instructions are 16-bit aligned, so candidate gadget starts are
// scanned at every word offset — including the interiors of two-word
// instructions, which yields unintended sequences exactly as on real
// hardware.
package gadget

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"mavr/internal/avr"
)

// Kind classifies a gadget by its most useful effect.
type Kind int

// Gadget kinds.
const (
	// KindPopChain only pops registers before ret.
	KindPopChain Kind = iota + 1
	// KindStkMove writes the stack pointer from r28/r29 (out 0x3d/0x3e)
	// — the paper's SP-pivot primitive.
	KindStkMove
	// KindWriteMem stores registers through the Y pointer (std Y+q)
	// before popping — the paper's arbitrary-write primitive.
	KindWriteMem
	// KindOther is any other ret-terminated sequence.
	KindOther
)

func (k Kind) String() string {
	switch k {
	case KindPopChain:
		return "pop-chain"
	case KindStkMove:
		return "stk_move"
	case KindWriteMem:
		return "write_mem"
	}
	return "other"
}

// Gadget is one ret-terminated instruction sequence.
type Gadget struct {
	// Addr is the word address of the first instruction.
	Addr uint32
	// Instrs is the decoded sequence, ending in ret.
	Instrs []avr.Instr
	// Kind is the classification of the sequence.
	Kind Kind
}

// Words returns the gadget length in words.
func (g *Gadget) Words() int {
	n := 0
	for _, in := range g.Instrs {
		n += in.Words
	}
	return n
}

const retWord = 0x9508

// minParallelWords is the image size (in words) below which a sharded
// scan is not worth the goroutine setup.
const minParallelWords = 16 * 1024

// Scan finds one gadget per ret instruction in image: the longest valid
// suffix of at most maxWords words that decodes cleanly into the ret
// with no intervening control transfer. The resulting count is the
// "gadgets found" figure of §VII-A.
//
// Large images are sharded across goroutines by flash region. Each
// shard owns the ret words inside its word range but reads the whole
// image when walking back from a ret, so sequences crossing a shard
// boundary — including the interiors of two-word instructions — are
// covered exactly as in a sequential scan. Shard results are merged in
// address order, so the output is byte-identical to a sequential scan.
func Scan(image []byte, maxWords int) []*Gadget {
	words := len(image) / 2
	shards := runtime.GOMAXPROCS(0)
	if words < minParallelWords || shards <= 1 {
		return scanRange(image, 0, words, maxWords)
	}
	return scanSharded(image, maxWords, shards)
}

// scanSharded runs the region-sharded scan with an explicit shard
// count (Scan picks GOMAXPROCS; tests pin it to cross-check against
// the sequential scan).
func scanSharded(image []byte, maxWords, shards int) []*Gadget {
	words := len(image) / 2
	chunk := (words + shards - 1) / shards
	results := make([][]*Gadget, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > words {
			hi = words
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			results[i] = scanRange(image, lo, hi, maxWords)
		}(i, lo, hi)
	}
	wg.Wait()
	var out []*Gadget
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// scanRange scans the ret words in word range [lo, hi), reading the
// full image for the backward suffix walk. One Finder's scratch is
// reused across rets.
func scanRange(image []byte, lo, hi, maxWords int) []*Gadget {
	var out []*Gadget
	f := NewFinder(maxWords)
	for w := NextRet(image, lo, hi); w < hi; w = NextRet(image, w+1, hi) {
		out = append(out, f.gadget(image, uint32(w)))
	}
	return out
}

// retBytes is retWord in flash byte order.
var retBytes = []byte{retWord & 0xFF, retWord >> 8}

// NextRet returns the first word address in [w, hi) whose word is a
// ret, or hi if there is none; hi is at most len(image)/2. It is a byte
// search for the ret encoding at even offsets.
func NextRet(image []byte, w, hi int) int {
	for w < hi {
		i := bytes.Index(image[2*w:2*hi], retBytes)
		if i < 0 {
			return hi
		}
		w += i / 2
		if i%2 == 0 {
			return w
		}
		w++ // the match straddles two words
	}
	return hi
}

// CountByKind tallies a scan result per classification.
func CountByKind(gs []*Gadget) map[Kind]int {
	m := make(map[Kind]int, 4)
	for _, g := range gs {
		m[g.Kind]++
	}
	return m
}

// Finder finds the gadget that ends at a ret word. It holds the suffix
// DP's decode window and fallthrough table, reused across rets, so Find
// does not allocate; Scan builds each Gadget from the same DP.
type Finder struct {
	maxWords int
	win      []avr.Instr
	ok       []bool
}

// NewFinder returns a Finder for gadgets of at most maxWords words
// before their ret.
func NewFinder(maxWords int) *Finder {
	return &Finder{maxWords: maxWords, win: make([]avr.Instr, maxWords), ok: make([]bool, maxWords+1)}
}

// Find returns the gadget Scan reports for the ret word at word address
// ret — its first word address, its instruction count (the ret
// included) and its kind — without building it. The answer relative to
// ret depends only on the maxWords+1 words ending at ret, or on the
// words from 0 when ret < maxWords.
func (f *Finder) Find(image []byte, ret uint32) (start uint32, instrs int, kind Kind) {
	start, body := f.body(image, ret)
	return start, len(body) + 1, classify(body)
}

// gadget builds the gadget ending at the ret word ret.
func (f *Finder) gadget(image []byte, ret uint32) *Gadget {
	start, body := f.body(image, ret)
	seq := make([]avr.Instr, len(body)+1)
	copy(seq, body)
	seq[len(body)] = avr.Instr{Op: avr.OpRET, Words: 1}
	return &Gadget{Addr: start, Instrs: seq, Kind: classify(body)}
}

// body returns the start and the instructions before the ret of the
// gadget ending at the ret word ret, compacted in the Finder's window.
func (f *Finder) body(image []byte, ret uint32) (uint32, []avr.Instr) {
	base, best, end := f.suffix(image, ret)
	n := best
	for i := best; i < end; i += f.win[i].Words {
		f.win[n] = f.win[i]
		n++
	}
	return base + uint32(best), f.win[best:n]
}

// suffix finds the longest chain of valid instructions starting at or
// before ret (word address) that ends exactly at ret: its body is the
// chain of f.win[best:end], each entry stepping by its Words, and
// starts at word base+best; best == end is a bare ret, still a
// (useless) gadget.
//
// Each of the maxWords window positions is decoded exactly once and
// the fallthrough property is computed backwards: position i falls
// through onto ret iff its instruction is valid straight-line code and
// decoding resumes either exactly at ret or at a position that itself
// falls through. The longest suffix is then the earliest such start —
// the same answer as re-decoding every candidate range, at O(maxWords)
// instead of O(maxWords²) decodes per ret.
func (f *Finder) suffix(image []byte, ret uint32) (base uint32, best, end int) {
	end = f.maxWords
	if uint32(end) > ret {
		end = int(ret)
	}
	base = ret - uint32(end)
	win, ok := f.win, f.ok
	// ok[i] reports whether decoding from word base+i lands exactly on
	// ret; index end is ret itself.
	ok[end] = true
	best = end
	for i := end - 1; i >= 0; i-- {
		in := avr.DecodeAt(image, base+uint32(i))
		win[i] = in
		e := i + in.Words
		ok[i] = straightLine(in.Op) && e <= end && ok[e]
		if ok[i] {
			best = i
		}
	}
	return base, best, end
}

// straightLine reports whether op can appear inside a gadget body: any
// valid instruction that is not a control transfer (a transfer before
// the ret means the sequence never reaches it).
func straightLine(op avr.Op) bool {
	switch op {
	case avr.OpInvalid,
		avr.OpRET, avr.OpRETI, avr.OpJMP, avr.OpRJMP, avr.OpIJMP,
		avr.OpEIJMP, avr.OpCALL, avr.OpRCALL, avr.OpICALL, avr.OpEICALL,
		avr.OpBRBS, avr.OpBRBC, avr.OpBREAK, avr.OpSLEEP:
		return false
	}
	return true
}

func classify(body []avr.Instr) Kind {
	var (
		wroteSPL, wroteSPH bool
		stores, pops, rest int
	)
	for _, in := range body {
		switch in.Op {
		case avr.OpOUT:
			switch in.A {
			case avr.IOAddrSPL:
				wroteSPL = true
			case avr.IOAddrSPH:
				wroteSPH = true
			case avr.IOAddrSREG:
			default:
				rest++
			}
		case avr.OpSTDY:
			stores++
		case avr.OpPOP:
			pops++
		default:
			rest++
		}
	}
	switch {
	case wroteSPL && wroteSPH && pops > 0:
		return KindStkMove
	case stores > 0 && pops > 0:
		return KindWriteMem
	case pops > 0 && rest == 0:
		return KindPopChain
	default:
		return KindOther
	}
}

// StkMove locates the paper's Fig. 4 gadget: consecutive writes of
// r29/r28 into SPH/SPL followed by pops and ret.
type StkMove struct {
	// Addr is the word address of the "out 0x3e, r29" instruction.
	Addr uint32
	// SPHReg and SPLReg are the registers written to SPH and SPL.
	SPHReg, SPLReg int
	// PopRegs are the registers popped between the SP write and ret, in
	// pop order.
	PopRegs []int
}

// WriteMem locates the paper's Fig. 5 combination gadget: three
// std Y+1..3 stores of r5..r7 followed by a long pop chain and ret.
type WriteMem struct {
	// StoreAddr is the word address of "std Y+1, r5" (first half).
	StoreAddr uint32
	// PopsAddr is the word address of the first pop (second half). The
	// attack uses the second half first, to load registers.
	PopsAddr uint32
	// StoreRegs are the registers stored to Y+1, Y+2, Y+3.
	StoreRegs [3]int
	// PopRegs are the popped registers in pop order.
	PopRegs []int
}

// Gadget-search errors.
var (
	ErrNoStkMove  = errors.New("gadget: no stk_move gadget in image")
	ErrNoWriteMem = errors.New("gadget: no write_mem gadget in image")
)

// FindStkMove returns the Fig. 4 gadget among a scan's pivot shapes:
// the one with the shortest pop tail (the attacker wants to spend as
// few chain bytes as possible per pivot), lowest address first.
func FindStkMove(gs []*Gadget) (*StkMove, error) {
	if pivots := PivotShapes(gs); len(pivots) > 0 {
		return pivots[0], nil
	}
	return nil, ErrNoStkMove
}

// FindWriteMem returns the Fig. 5 gadget among a scan's store runs: the
// lowest-address run storing to Y+1..Y+3 whose pop tail is at least
// minPops long (the paper's gadget pops 16 registers) and reloads Y
// (r28/r29) and the three stored registers, so the attack can chain
// pops -> stores.
func FindWriteMem(gs []*Gadget, minPops int) (*WriteMem, error) {
	var best *StoreRun
	for _, sr := range StoreRuns(gs) {
		pops := sr.TailPops
		if sr.QBase != 1 || len(pops) < minPops || (best != nil && sr.Addr > best.Addr) {
			continue
		}
		if contains(pops, 28) && contains(pops, 29) && contains(pops, sr.StoreRegs[0]) &&
			contains(pops, sr.StoreRegs[1]) && contains(pops, sr.StoreRegs[2]) {
			best = sr
		}
	}
	if best == nil {
		return nil, ErrNoWriteMem
	}
	return &WriteMem{
		StoreAddr: best.Addr,
		PopsAddr:  best.TailAddr,
		StoreRegs: best.StoreRegs,
		PopRegs:   best.TailPops,
	}, nil
}

// PopOffset returns the byte offset within the gadget's pop data at
// which register r is loaded, or -1.
func (g *WriteMem) PopOffset(r int) int {
	for i, p := range g.PopRegs {
		if p == r {
			return i
		}
	}
	return -1
}

// PopOffset returns the byte offset within the stk_move tail's pop data
// at which register r is loaded, or -1.
func (g *StkMove) PopOffset(r int) int {
	for i, p := range g.PopRegs {
		if p == r {
			return i
		}
	}
	return -1
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Describe renders a gadget summary line.
func (g *Gadget) Describe() string {
	return fmt.Sprintf("%6x: %-9s (%d instrs)", g.Addr*2, g.Kind, len(g.Instrs))
}
