package gadget

import (
	"sort"

	"mavr/internal/avr"
)

// Shape enumeration: the functions in this file enumerate *every* entry
// point in a Scan result that has a required effect, following the
// functional-gadget framing of "Return-Oriented Programming on RISC-V":
// a gadget is anything that realizes a role (pivot the stack, store
// through a pointer, load registers), not just the one idiom the
// compiler emits most often. Chain synthesis (internal/attack) searches
// over these candidate sets against the emulator; FindStkMove and
// FindWriteMem pick the paper's two canonical gadgets (Fig. 4/5) out of
// the same sets.
//
// Entry points are word addresses *inside* scanned gadgets: execution
// may enter a ret-terminated sequence at any instruction boundary, so
// one scanned gadget can contribute several shaped entries.

// StoreRun is a write-primitive entry point: executing from Addr
// performs exactly three stores through the Y pointer at consecutive
// displacements QBase..QBase+2, then pops TailPops and returns. Unlike
// the canonical Fig. 5 match it does not require QBase == 1 or that the
// tail reloads Y — a loader can be composed from a separate pop chain.
type StoreRun struct {
	// Addr is the word address of the first std Y+QBase instruction.
	Addr uint32
	// TailAddr is the word address just past the stores (the run's own
	// pop tail, possibly empty).
	TailAddr uint32
	// QBase is the Y displacement of the first store: the written bytes
	// land at Y+QBase, Y+QBase+1, Y+QBase+2.
	QBase int
	// StoreRegs are the registers stored, in displacement order.
	StoreRegs [3]int
	// TailPops are the registers the run's own tail pops before ret.
	TailPops []int
}

// PopChain is a register-loader entry point: executing from Addr pops
// PopRegs in order and returns.
type PopChain struct {
	Addr    uint32
	PopRegs []int
}

// PivotShapes enumerates every stk_move-shaped entry point in a scan:
// out SPH, (optional SREG restore,) out SPL, one or more pops, ret.
// Results are deduplicated and sorted by ascending pop-tail length then
// address (the attacker spends one chain byte per tail pop).
func PivotShapes(gs []*Gadget) []*StkMove {
	var out []*StkMove
	seen := make(map[uint32]bool)
	for _, g := range gs {
		w := g.Addr
		for i := 0; i < len(g.Instrs); i++ {
			in := g.Instrs[i]
			if in.Op == avr.OpOUT && in.A == avr.IOAddrSPH {
				if sm := pivotAt(g, i, w); sm != nil && !seen[sm.Addr] {
					seen[sm.Addr] = true
					out = append(out, sm)
				}
			}
			w += uint32(in.Words)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].PopRegs) != len(out[j].PopRegs) {
			return len(out[i].PopRegs) < len(out[j].PopRegs)
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// pivotAt matches the pivot shape starting at instruction index i of g
// (known to be out SPH), whose word address is w.
func pivotAt(g *Gadget, i int, w uint32) *StkMove {
	sm := &StkMove{Addr: w, SPHReg: g.Instrs[i].D}
	j := i + 1
	// Allow an SREG restore between the SP writes (the avr-gcc
	// interrupt-safe idiom the paper's Fig. 4 gadget carries).
	for j < len(g.Instrs) && g.Instrs[j].Op == avr.OpOUT && g.Instrs[j].A == avr.IOAddrSREG {
		j++
	}
	if j >= len(g.Instrs) || g.Instrs[j].Op != avr.OpOUT || g.Instrs[j].A != avr.IOAddrSPL {
		return nil
	}
	sm.SPLReg = g.Instrs[j].D
	for j++; j < len(g.Instrs)-1; j++ {
		if g.Instrs[j].Op != avr.OpPOP {
			return nil
		}
		sm.PopRegs = append(sm.PopRegs, g.Instrs[j].D)
	}
	if len(sm.PopRegs) == 0 || g.Instrs[len(g.Instrs)-1].Op != avr.OpRET {
		return nil
	}
	return sm
}

// StoreRuns enumerates every 3-store write entry point in a scan: the
// last three stores of each maximal run of consecutive-displacement
// std Y+q instructions, provided everything between the stores and the
// ret is pops (side-effect free for the chain). Sorted by ascending
// tail length then address.
func StoreRuns(gs []*Gadget) []*StoreRun {
	var out []*StoreRun
	seen := make(map[uint32]bool)
	for _, g := range gs {
		w := g.Addr
		for i := 0; i < len(g.Instrs); i++ {
			in := g.Instrs[i]
			if in.Op == avr.OpSTDY {
				if sr := storeRunAt(g, i, w); sr != nil && !seen[sr.Addr] {
					seen[sr.Addr] = true
					out = append(out, sr)
				}
			}
			w += uint32(in.Words)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].TailPops) != len(out[j].TailPops) {
			return len(out[i].TailPops) < len(out[j].TailPops)
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// storeRunAt matches a maximal consecutive-displacement store run
// beginning at instruction index i of g (known to be std Y+q) at word
// address w, and returns its last-three-stores entry when the run is at
// least three long and only pops separate it from the ret.
func storeRunAt(g *Gadget, i int, w uint32) *StoreRun {
	// Only consider maximal runs: a std immediately before this one with
	// the preceding displacement means i is an interior entry the run's
	// own candidate already covers.
	if i > 0 && g.Instrs[i-1].Op == avr.OpSTDY && g.Instrs[i-1].Q == g.Instrs[i].Q-1 {
		return nil
	}
	j := i
	for j+1 < len(g.Instrs) && g.Instrs[j+1].Op == avr.OpSTDY && g.Instrs[j+1].Q == g.Instrs[j].Q+1 {
		j++
	}
	n := j - i + 1
	if n < 3 {
		return nil
	}
	var tail []int
	for k := j + 1; k < len(g.Instrs)-1; k++ {
		if g.Instrs[k].Op != avr.OpPOP {
			return nil
		}
		tail = append(tail, g.Instrs[k].D)
	}
	if g.Instrs[len(g.Instrs)-1].Op != avr.OpRET {
		return nil
	}
	// Enter at the third-from-last store so exactly three bytes are
	// written; earlier entries would widen the write.
	first := j - 2
	sr := &StoreRun{
		Addr:      w + uint32(first-i), // stds are one word each
		TailAddr:  w + uint32(j+1-i),
		QBase:     g.Instrs[first].Q,
		StoreRegs: [3]int{g.Instrs[first].D, g.Instrs[first+1].D, g.Instrs[first+2].D},
		TailPops:  tail,
	}
	return sr
}

// PopChains enumerates every pure register-loader entry point: the
// longest all-pop suffix of each gadget (before the ret). The pop half
// of a Fig. 5 write_mem gadget appears here, as does every function
// epilogue. Sorted by descending pop count then address (a loader is
// useful in proportion to the registers it controls).
func PopChains(gs []*Gadget) []*PopChain {
	var out []*PopChain
	seen := make(map[uint32]bool)
	for _, g := range gs {
		n := len(g.Instrs)
		if n < 2 || g.Instrs[n-1].Op != avr.OpRET {
			continue
		}
		// Find the longest all-pop suffix ending at the ret.
		start := n - 1
		for start-1 >= 0 && g.Instrs[start-1].Op == avr.OpPOP {
			start--
		}
		if start == n-1 {
			continue
		}
		w := g.Addr
		for i := 0; i < start; i++ {
			w += uint32(g.Instrs[i].Words)
		}
		pc := &PopChain{Addr: w}
		for i := start; i < n-1; i++ {
			pc.PopRegs = append(pc.PopRegs, g.Instrs[i].D)
		}
		if seen[pc.Addr] {
			continue
		}
		seen[pc.Addr] = true
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].PopRegs) != len(out[j].PopRegs) {
			return len(out[i].PopRegs) > len(out[j].PopRegs)
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// PopOffset returns the index within the chain's pop data at which
// register r is loaded, or -1.
func (p *PopChain) PopOffset(r int) int {
	for i, reg := range p.PopRegs {
		if reg == r {
			return i
		}
	}
	return -1
}
