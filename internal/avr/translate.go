package avr

// Basic-block translation: decoded instructions become chains of
// specialized Go closures. Each closure captures its operands as
// constants (register indices, immediates, precomputed branch
// targets), so executing a block is a run of direct calls with no
// fetch, no bounds test, no budget test and no dispatch switch.
//
// Within a block the translator also performs flag-liveness hoisting:
// a backwards scan over each straight-line run of pure (hook-free)
// instructions finds arithmetic whose SREG results are overwritten
// before any read, and emits flag-free variants for them. The scan
// resets to "all flags live" at every hook-capable instruction and at
// the block end, so SREG is always architecturally correct at every
// point where execution could leave the block (fault, interrupt bail,
// terminator) — flag elision is never observable.

// SREG flag bit masks for the liveness scan.
const (
	mC = 1 << FlagC
	mZ = 1 << FlagZ
	mT = 1 << FlagT

	mArith = 1<<FlagH | 1<<FlagC | 1<<FlagN | 1<<FlagV | 1<<FlagS | 1<<FlagZ
	mLogic = 1<<FlagN | 1<<FlagV | 1<<FlagS | 1<<FlagZ // and/or/eor, inc/dec (no C/H)
	mShift = 1<<FlagC | 1<<FlagZ | 1<<FlagN | 1<<FlagV | 1<<FlagS
	mAll   = 0xFF
)

// flagEffects returns the SREG bits a pure instruction reads and
// writes. ok is false for hook-capable (impure) instructions and
// terminators, which the liveness scan treats as reading everything.
func flagEffects(in Instr) (read, written uint8, ok bool) {
	switch in.Op {
	case OpNOP, OpWDR, OpMOVW, OpMOV, OpLDI, OpSWAP,
		OpLPM, OpLPMZ, OpLPMZInc, OpELPM, OpELPMZ, OpELPMZInc:
		return 0, 0, true
	case OpADD, OpSUB, OpSUBI, OpCP, OpCPI, OpNEG:
		return 0, mArith, true
	case OpADC:
		return mC, mArith, true
	case OpSBC, OpSBCI, OpCPC:
		return mC | mZ, mArith, true
	case OpAND, OpANDI, OpOR, OpORI, OpEOR:
		return 0, mLogic, true
	case OpCOM:
		return 0, mLogic | mC, true
	case OpINC, OpDEC:
		return 0, mLogic, true
	case OpASR, OpLSR:
		return 0, mShift, true
	case OpROR:
		return mC, mShift, true
	case OpMUL, OpMULS, OpMULSU, OpFMUL:
		return 0, mC | mZ, true
	case OpADIW, OpSBIW:
		return 0, mShift, true
	case OpBSET:
		if in.D == FlagI {
			// sei starts the one-instruction interrupt delay: the next
			// step must replay the interpreter's pre-instruction check,
			// so treat it like a hook-capable instruction.
			return mAll, 0, false
		}
		return 0, 1 << in.D, true
	case OpBCLR:
		return 0, 1 << in.D, true
	case OpBLD:
		return mT, 0, true
	case OpBST:
		return 0, mT, true
	}
	// Everything else reaches data space through Read/WriteData (hooks,
	// memory-mapped SREG) or is a terminator: all flags live.
	return mAll, 0, false
}

// isTranslatableBody reports whether genBody has a specialized closure
// for op. Any op outside this set and the terminator set (a future
// extension of the decoder) cuts the block so the interpreter handles
// it — translation never guesses at semantics.
func isTranslatableBody(op Op) bool {
	switch op {
	case OpNOP, OpWDR, OpMOVW, OpMOV, OpLDI, OpSWAP,
		OpADD, OpADC, OpSUB, OpSBC, OpSUBI, OpSBCI, OpCP, OpCPC, OpCPI,
		OpAND, OpANDI, OpOR, OpORI, OpEOR, OpCOM, OpNEG, OpINC, OpDEC,
		OpASR, OpLSR, OpROR, OpMUL, OpMULS, OpMULSU, OpFMUL, OpADIW, OpSBIW,
		OpBSET, OpBCLR, OpBLD, OpBST,
		OpIN, OpOUT, OpCBI, OpSBI, OpLDS, OpSTS,
		OpLDX, OpLDXInc, OpLDXDec, OpLDYInc, OpLDYDec, OpLDZInc, OpLDZDec,
		OpLDDY, OpLDDZ, OpSTX, OpSTXInc, OpSTXDec, OpSTYInc, OpSTYDec,
		OpSTZInc, OpSTZDec, OpSTDY, OpSTDZ,
		OpLPM, OpLPMZ, OpLPMZInc, OpELPM, OpELPMZ, OpELPMZInc,
		OpPUSH, OpPOP:
		return true
	}
	return false
}

// isBlockTerminator reports whether in ends a basic block: control
// transfers, conditional skips, self-programming, sleep, break and
// invalid encodings.
func isBlockTerminator(in Instr) bool {
	switch in.Op {
	case OpRJMP, OpJMP, OpIJMP, OpEIJMP, OpRCALL, OpCALL, OpICALL, OpEICALL,
		OpRET, OpRETI, OpBRBS, OpBRBC,
		OpCPSE, OpSBRC, OpSBRS, OpSBIC, OpSBIS,
		OpSPM, OpSLEEP, OpBREAK, OpInvalid:
		return true
	}
	return false
}

// termWorstCycles is the worst-case cycle cost of a terminator, used
// for the block's entry budget gate.
func termWorstCycles(in Instr) uint64 {
	base := baseCycles(in.Op)
	switch in.Op {
	case OpBRBS, OpBRBC:
		return base + 1 // taken branch
	case OpCPSE, OpSBRC, OpSBRS, OpSBIC, OpSBIS:
		return base + 2 // skipping a two-word instruction
	case OpSPM:
		return base + 4 // execSPM busy time
	}
	return base
}

// noopStep is emitted for architecturally effect-free instructions
// (nop, wdr, dead compares) that must still exist as a step because
// they carry the pre-instruction check of a preceding impure step.
func noopStep(*CPU) {}

// translate builds the basic block entered at word address entry, or
// returns nil when the entry instruction cannot be translated. It
// decodes with DecodeAt, as the interpreter does, so the two tiers
// always agree on instruction boundaries.
func (c *CPU) translate(entry uint32) *block {
	type decoded struct {
		in Instr
		pc uint32
	}
	var body []decoded
	var term *decoded
	pc := entry
	for pc < FlashWords {
		in := DecodeAt(c.Flash, pc)
		d := decoded{in: in, pc: pc}
		if isBlockTerminator(in) {
			term = &d
			pc += uint32(in.Words)
			break
		}
		if !isTranslatableBody(in.Op) {
			break // cut the block; the interpreter executes this op
		}
		body = append(body, d)
		pc += uint32(in.Words)
		if len(body) >= maxBlockInstrs {
			break
		}
	}
	if len(body) == 0 && term == nil {
		return nil // untranslatable entry: poison so Run keeps interpreting
	}
	end := pc // word address after the block (fallthrough target)
	c.blkStats.Translated++

	b := &block{}

	// Stamp every flash page the block's bytes cover with its current
	// generation. end lies past the last instruction's operand word, so
	// patching any word of the block, operands included, invalidates it.
	firstPage := entry * 2 / SPMPageSize
	lastPage := (end*2 - 1) / SPMPageSize
	if lastPage >= flashPages {
		lastPage = flashPages - 1
	}
	b.pages[0], b.gens[0] = firstPage, c.pageGen[firstPage]
	b.npages = 1
	if lastPage != firstPage {
		b.pages[1], b.gens[1] = lastPage, c.pageGen[lastPage]
		b.npages = 2
	}

	// Backwards flag-liveness scan over the body: deadFlags[i] is true
	// when instruction i's SREG writes are all overwritten before any
	// read, with no possible block exit in between.
	deadFlags := make([]bool, len(body))
	live := uint8(mAll)
	for i := len(body) - 1; i >= 0; i-- {
		read, written, ok := flagEffects(body[i].in)
		if !ok {
			live = mAll
			continue
		}
		if written != 0 && written&live == 0 {
			deadFlags[i] = true
		}
		live = live&^written | read
	}

	// Emit steps forward, accumulating straight-line cycles.
	var cycles uint64
	pure := true
	steps := make([]blockStep, 0, len(body)+1)
	prevImpure := false // does the previous instruction need a check after it?
	for i, d := range body {
		fn, impure := c.genBody(d.in, d.pc, deadFlags[i], b, cycles)
		check := prevImpure
		prevImpure = impure
		if impure {
			pure = false
		}
		if fn == nil {
			// Effect-free (nop/wdr/dead compare): elide the step
			// entirely unless it carries a check.
			if !check {
				cycles += baseCycles(d.in.Op)
				continue
			}
			fn = noopStep
		}
		steps = append(steps, blockStep{fn: fn, pc: d.pc, fixup: cycles, check: check})
		cycles += baseCycles(d.in.Op)
	}
	b.body = cycles

	var termStep blockStep
	if term != nil {
		termStep = blockStep{fn: c.genTerm(term.in, term.pc), pc: term.pc, fixup: cycles, check: prevImpure}
		b.cycles = cycles + termWorstCycles(term.in)
	} else {
		// Synthetic fallthrough: the block was cut by the length cap, an
		// untranslatable op, or the flash boundary. setPC performs the
		// same out-of-range check the interpreter would reach next.
		target := end
		termStep = blockStep{fn: func(c *CPU) { c.setPC(target) }, pc: end, fixup: cycles, check: prevImpure}
		b.cycles = cycles + 1 // keep the entry gate strictly progressing
	}
	steps = append(steps, termStep)

	// fixup currently holds cycles-before-step; convert to the rewind
	// delta (body sum minus cycles-before).
	for i := range steps {
		steps[i].fixup = b.body - steps[i].fixup
	}

	if pure {
		fns := make([]func(*CPU), len(steps))
		for i := range steps {
			fns[i] = steps[i].fn
		}
		b.fns = fns
	} else {
		b.steps = steps
	}
	return b
}

// genBody returns the closure for one straight-line instruction and
// whether the instruction is hook-capable (impure): able to fault,
// raise an interrupt through an I/O hook, or alter interrupt
// recognition. A nil closure marks an architecturally effect-free
// instruction. Flag-dead instructions get variants that skip SREG
// materialization entirely. b and cb (the block under construction and
// the straight-line cycles before this instruction) let faulting
// closures reconstruct the unbatched cycle count for fault records.
func (c *CPU) genBody(in Instr, pc uint32, dead bool, b *block, cb uint64) (fn func(*CPU), impure bool) {
	d, r := in.D, in.R
	k := byte(in.K)
	switch in.Op {
	case OpNOP, OpWDR:
		return nil, false

	case OpMOVW:
		return func(c *CPU) {
			c.Data[d] = c.Data[r]
			c.Data[d+1] = c.Data[r+1]
		}, false

	case OpADD:
		if dead {
			return func(c *CPU) { c.Data[d] += c.Data[r] }, false
		}
		return func(c *CPU) { c.Data[d] = c.addFlags(c.Data[d], c.Data[r], false) }, false
	case OpADC:
		if dead {
			return func(c *CPU) { c.Data[d] += c.Data[r] + c.Data[AddrSREG]&1 }, false
		}
		return func(c *CPU) { c.Data[d] = c.addFlags(c.Data[d], c.Data[r], c.Data[AddrSREG]&mC != 0) }, false
	case OpSUB:
		if dead {
			return func(c *CPU) { c.Data[d] -= c.Data[r] }, false
		}
		return func(c *CPU) { c.Data[d] = c.subFlags(c.Data[d], c.Data[r], false, false) }, false
	case OpSBC:
		if dead {
			return func(c *CPU) { c.Data[d] -= c.Data[r] + c.Data[AddrSREG]&1 }, false
		}
		return func(c *CPU) { c.Data[d] = c.subFlags(c.Data[d], c.Data[r], c.Data[AddrSREG]&mC != 0, true) }, false
	case OpSUBI:
		if dead {
			return func(c *CPU) { c.Data[d] -= k }, false
		}
		return func(c *CPU) { c.Data[d] = c.subFlags(c.Data[d], k, false, false) }, false
	case OpSBCI:
		if dead {
			return func(c *CPU) { c.Data[d] -= k + c.Data[AddrSREG]&1 }, false
		}
		return func(c *CPU) { c.Data[d] = c.subFlags(c.Data[d], k, c.Data[AddrSREG]&mC != 0, true) }, false

	case OpCP:
		if dead {
			return nil, false
		}
		return func(c *CPU) { c.subFlags(c.Data[d], c.Data[r], false, false) }, false
	case OpCPC:
		if dead {
			return nil, false
		}
		return func(c *CPU) { c.subFlags(c.Data[d], c.Data[r], c.Data[AddrSREG]&mC != 0, true) }, false
	case OpCPI:
		if dead {
			return nil, false
		}
		return func(c *CPU) { c.subFlags(c.Data[d], k, false, false) }, false

	case OpAND:
		if dead {
			return func(c *CPU) { c.Data[d] &= c.Data[r] }, false
		}
		return func(c *CPU) { c.Data[d] = c.logicFlags(c.Data[d] & c.Data[r]) }, false
	case OpANDI:
		if dead {
			return func(c *CPU) { c.Data[d] &= k }, false
		}
		return func(c *CPU) { c.Data[d] = c.logicFlags(c.Data[d] & k) }, false
	case OpOR:
		if dead {
			return func(c *CPU) { c.Data[d] |= c.Data[r] }, false
		}
		return func(c *CPU) { c.Data[d] = c.logicFlags(c.Data[d] | c.Data[r]) }, false
	case OpORI:
		if dead {
			return func(c *CPU) { c.Data[d] |= k }, false
		}
		return func(c *CPU) { c.Data[d] = c.logicFlags(c.Data[d] | k) }, false
	case OpEOR:
		if dead {
			return func(c *CPU) { c.Data[d] ^= c.Data[r] }, false
		}
		return func(c *CPU) { c.Data[d] = c.logicFlags(c.Data[d] ^ c.Data[r]) }, false

	case OpMOV:
		return func(c *CPU) { c.Data[d] = c.Data[r] }, false
	case OpLDI:
		return func(c *CPU) { c.Data[d] = k }, false

	case OpCOM:
		if dead {
			return func(c *CPU) { c.Data[d] = ^c.Data[d] }, false
		}
		return func(c *CPU) {
			v := ^c.Data[d]
			c.logicFlags(v)
			c.SetFlag(FlagC, true)
			c.Data[d] = v
		}, false
	case OpNEG:
		if dead {
			return func(c *CPU) { c.Data[d] = -c.Data[d] }, false
		}
		return func(c *CPU) { c.Data[d] = c.subFlags(0, c.Data[d], false, false) }, false
	case OpSWAP:
		return func(c *CPU) {
			v := c.Data[d]
			c.Data[d] = v<<4 | v>>4
		}, false
	case OpINC:
		if dead {
			return func(c *CPU) { c.Data[d]++ }, false
		}
		return func(c *CPU) {
			v := c.Data[d] + 1
			c.SetFlag(FlagV, v == 0x80)
			c.nzs(v)
			c.Data[d] = v
		}, false
	case OpDEC:
		if dead {
			return func(c *CPU) { c.Data[d]-- }, false
		}
		return func(c *CPU) {
			v := c.Data[d] - 1
			c.SetFlag(FlagV, v == 0x7F)
			c.nzs(v)
			c.Data[d] = v
		}, false
	case OpASR:
		if dead {
			return func(c *CPU) {
				v := c.Data[d]
				c.Data[d] = v>>1 | v&0x80
			}, false
		}
		return func(c *CPU) {
			v := c.Data[d]
			res := v>>1 | v&0x80
			c.shiftFlags(res, v&1 != 0)
			c.Data[d] = res
		}, false
	case OpLSR:
		if dead {
			return func(c *CPU) { c.Data[d] >>= 1 }, false
		}
		return func(c *CPU) {
			v := c.Data[d]
			res := v >> 1
			c.shiftFlags(res, v&1 != 0)
			c.Data[d] = res
		}, false
	case OpROR:
		if dead {
			return func(c *CPU) {
				v := c.Data[d]
				c.Data[d] = v>>1 | c.Data[AddrSREG]<<7 // carry is SREG bit 0
			}, false
		}
		return func(c *CPU) {
			v := c.Data[d]
			res := v>>1 | c.Data[AddrSREG]<<7
			c.shiftFlags(res, v&1 != 0)
			c.Data[d] = res
		}, false

	case OpMUL:
		if dead {
			return func(c *CPU) { c.SetRegPair(0, uint16(c.Data[d])*uint16(c.Data[r])) }, false
		}
		return func(c *CPU) {
			p := uint16(c.Data[d]) * uint16(c.Data[r])
			c.SetRegPair(0, p)
			c.SetFlag(FlagC, p&0x8000 != 0)
			c.SetFlag(FlagZ, p == 0)
		}, false
	case OpMULS:
		if dead {
			return func(c *CPU) { c.SetRegPair(0, uint16(int16(int8(c.Data[d]))*int16(int8(c.Data[r])))) }, false
		}
		return func(c *CPU) {
			p := int16(int8(c.Data[d])) * int16(int8(c.Data[r]))
			c.SetRegPair(0, uint16(p))
			c.SetFlag(FlagC, uint16(p)&0x8000 != 0)
			c.SetFlag(FlagZ, p == 0)
		}, false
	case OpMULSU, OpFMUL:
		shift := in.Op == OpFMUL
		if dead {
			return func(c *CPU) {
				p := int16(int8(c.Data[d])) * int16(c.Data[r])
				if shift {
					p <<= 1
				}
				c.SetRegPair(0, uint16(p))
			}, false
		}
		return func(c *CPU) {
			p := int16(int8(c.Data[d])) * int16(c.Data[r])
			if shift {
				p <<= 1
			}
			c.SetRegPair(0, uint16(p))
			c.SetFlag(FlagC, uint16(p)&0x8000 != 0)
			c.SetFlag(FlagZ, p == 0)
		}, false

	case OpADIW:
		kw := uint16(in.K)
		if dead {
			return func(c *CPU) { c.SetRegPair(d, c.RegPair(d)+kw) }, false
		}
		return func(c *CPU) {
			v := c.RegPair(d)
			res := v + kw
			c.SetRegPair(d, res)
			c.SetFlag(FlagC, res < v)
			c.SetFlag(FlagZ, res == 0)
			c.SetFlag(FlagN, res&0x8000 != 0)
			c.SetFlag(FlagV, v&0x8000 == 0 && res&0x8000 != 0)
			c.SetFlag(FlagS, c.Flag(FlagN) != c.Flag(FlagV))
		}, false
	case OpSBIW:
		kw := uint16(in.K)
		if dead {
			return func(c *CPU) { c.SetRegPair(d, c.RegPair(d)-kw) }, false
		}
		return func(c *CPU) {
			v := c.RegPair(d)
			res := v - kw
			c.SetRegPair(d, res)
			c.SetFlag(FlagC, res > v)
			c.SetFlag(FlagZ, res == 0)
			c.SetFlag(FlagN, res&0x8000 != 0)
			c.SetFlag(FlagV, v&0x8000 != 0 && res&0x8000 == 0)
			c.SetFlag(FlagS, c.Flag(FlagN) != c.Flag(FlagV))
		}, false

	case OpBSET:
		if d == FlagI {
			// sei: impure so the following step replays the check that
			// implements the one-instruction interrupt delay.
			return func(c *CPU) {
				if c.Data[AddrSREG]&(1<<FlagI) == 0 {
					c.intSuppress = true
				}
				c.Data[AddrSREG] |= 1 << FlagI
			}, true
		}
		bit := byte(1) << d
		return func(c *CPU) { c.Data[AddrSREG] |= bit }, false
	case OpBCLR:
		bit := byte(1) << d
		return func(c *CPU) { c.Data[AddrSREG] &^= bit }, false
	case OpBLD:
		bit := byte(1) << in.B
		return func(c *CPU) {
			if c.Data[AddrSREG]&mT != 0 {
				c.Data[d] |= bit
			} else {
				c.Data[d] &^= bit
			}
		}, false
	case OpBST:
		bit := byte(1) << in.B
		return func(c *CPU) { c.SetFlag(FlagT, c.Data[d]&bit != 0) }, false

	case OpIN:
		a := uint16(IOBase + in.A)
		return func(c *CPU) { c.Data[d] = c.ReadData(a) }, true
	case OpOUT:
		a := uint16(IOBase + in.A)
		return func(c *CPU) { c.WriteData(a, c.Data[d]) }, true
	case OpCBI:
		a := uint16(IOBase + in.A)
		bit := byte(1) << in.B
		return func(c *CPU) { c.WriteData(a, c.ReadData(a)&^bit) }, true
	case OpSBI:
		a := uint16(IOBase + in.A)
		bit := byte(1) << in.B
		return func(c *CPU) { c.WriteData(a, c.ReadData(a)|bit) }, true

	case OpLDS:
		a := uint16(in.Target)
		return func(c *CPU) { c.Data[d] = c.ReadData(a) }, true
	case OpSTS:
		a := uint16(in.Target)
		return func(c *CPU) { c.WriteData(a, c.Data[d]) }, true

	case OpLDX, OpLDXInc, OpLDXDec, OpSTX, OpSTXInc, OpSTXDec:
		return c.genIndirect(in, RegXL), true
	case OpLDYInc, OpLDYDec, OpSTYInc, OpSTYDec:
		return c.genIndirect(in, RegYL), true
	case OpLDZInc, OpLDZDec, OpSTZInc, OpSTZDec:
		return c.genIndirect(in, RegZL), true
	case OpLDDY:
		q := uint16(in.Q)
		return func(c *CPU) { c.Data[d] = c.ReadData(c.RegPair(RegYL) + q) }, true
	case OpLDDZ:
		q := uint16(in.Q)
		return func(c *CPU) { c.Data[d] = c.ReadData(c.RegPair(RegZL) + q) }, true
	case OpSTDY:
		q := uint16(in.Q)
		return func(c *CPU) { c.WriteData(c.RegPair(RegYL)+q, c.Data[d]) }, true
	case OpSTDZ:
		q := uint16(in.Q)
		return func(c *CPU) { c.WriteData(c.RegPair(RegZL)+q, c.Data[d]) }, true

	case OpLPM:
		return func(c *CPU) { c.Data[0] = c.lpmByte(uint32(c.RegPair(RegZL))) }, false
	case OpLPMZ:
		return func(c *CPU) { c.Data[d] = c.lpmByte(uint32(c.RegPair(RegZL))) }, false
	case OpLPMZInc:
		return func(c *CPU) {
			z := c.RegPair(RegZL)
			c.Data[d] = c.lpmByte(uint32(z))
			c.SetRegPair(RegZL, z+1)
		}, false
	case OpELPM:
		return func(c *CPU) { c.Data[0] = c.lpmByte(c.extZ()) }, false
	case OpELPMZ:
		return func(c *CPU) { c.Data[d] = c.lpmByte(c.extZ()) }, false
	case OpELPMZInc:
		return func(c *CPU) {
			z := c.extZ()
			c.Data[d] = c.lpmByte(z)
			z++
			c.SetRegPair(RegZL, uint16(z))
			c.Data[IOBase+IOAddrRAMPZ] = byte(z >> 16)
		}, false

	case OpPUSH:
		// The only straight-line instruction that can fault (stack
		// overflow). The fault record must carry the cycle count the
		// interpreter would have after this instruction, not the block's
		// batched total: b.body - cb - 2 is the not-yet-earned remainder
		// (b.body is filled in after emission; closures run later).
		return func(c *CPU) {
			sp := c.SP()
			c.WriteData(sp, c.Data[d])
			c.SetSP(sp - 1)
			if sp-1 < SRAMBase && c.fault == nil {
				c.fault = &Fault{
					Kind:  FaultStackOverflow,
					PC:    pc,
					Cycle: c.Cycles - (b.body - cb - 2),
				}
			}
		}, true
	case OpPOP:
		return func(c *CPU) { c.Data[d] = c.PopByte() }, true
	}

	// The decode walk only admits ops from isTranslatableBody, which
	// mirrors this switch exactly.
	panic("avr: untranslatable op in block body: " + in.Op.String())
}

// genIndirect mirrors execIndirect with the pointer pair and mode
// resolved at translation time.
func (c *CPU) genIndirect(in Instr, lo int) func(*CPU) {
	d := in.D
	switch in.Op {
	case OpLDX:
		return func(c *CPU) { c.Data[d] = c.ReadData(c.RegPair(lo)) }
	case OpLDXInc, OpLDYInc, OpLDZInc:
		return func(c *CPU) {
			p := c.RegPair(lo)
			c.Data[d] = c.ReadData(p)
			c.SetRegPair(lo, p+1)
		}
	case OpLDXDec, OpLDYDec, OpLDZDec:
		return func(c *CPU) {
			p := c.RegPair(lo) - 1
			c.SetRegPair(lo, p)
			c.Data[d] = c.ReadData(p)
		}
	case OpSTX:
		return func(c *CPU) { c.WriteData(c.RegPair(lo), c.Data[d]) }
	case OpSTXInc, OpSTYInc, OpSTZInc:
		return func(c *CPU) {
			p := c.RegPair(lo)
			c.WriteData(p, c.Data[d])
			c.SetRegPair(lo, p+1)
		}
	default: // OpSTXDec, OpSTYDec, OpSTZDec
		return func(c *CPU) {
			p := c.RegPair(lo) - 1
			c.SetRegPair(lo, p)
			c.WriteData(p, c.Data[d])
		}
	}
}

// genTerm returns the closure for a block-ending instruction. Each
// replicates the interpreter's exec case exactly, including its own
// cycle accounting (the block batches only straight-line cycles) and
// fault PC/opcode capture.
func (c *CPU) genTerm(in Instr, pc uint32) func(*CPU) {
	next := pc + uint32(in.Words)
	d, r := in.D, in.R
	switch in.Op {
	case OpRJMP:
		target := uint32(int64(next) + int64(in.K))
		return func(c *CPU) {
			c.Cycles += 2
			c.setPC(target)
		}
	case OpJMP:
		target := in.Target
		return func(c *CPU) {
			c.Cycles += 3
			c.setPC(target)
		}
	case OpIJMP:
		return func(c *CPU) {
			c.Cycles += 2
			c.setPC(uint32(c.RegPair(RegZL)))
		}
	case OpEIJMP:
		return func(c *CPU) {
			c.Cycles += 2
			c.setPC(c.eindZ())
		}
	case OpRCALL:
		target := uint32(int64(next) + int64(in.K))
		return func(c *CPU) {
			c.Cycles += 4
			c.PC = pc // stack-overflow faults record the call site
			c.PushPC(next)
			c.setPC(target)
		}
	case OpCALL:
		target := in.Target
		return func(c *CPU) {
			c.Cycles += 5
			c.PC = pc
			c.PushPC(next)
			c.setPC(target)
		}
	case OpICALL:
		return func(c *CPU) {
			c.Cycles += 4
			c.PC = pc
			c.PushPC(next)
			c.setPC(uint32(c.RegPair(RegZL)))
		}
	case OpEICALL:
		return func(c *CPU) {
			c.Cycles += 4
			c.PC = pc
			c.PushPC(next)
			c.setPC(c.eindZ())
		}
	case OpRET:
		return func(c *CPU) {
			c.Cycles += 5
			c.setPC(c.PopPC())
		}
	case OpRETI:
		return func(c *CPU) {
			c.Cycles += 5
			c.SetFlag(FlagI, true)
			c.intSuppress = true // one main-program instruction runs first
			c.setPC(c.PopPC())
		}

	case OpBRBS:
		bit := byte(1) << d
		target := uint32(int64(next) + int64(in.K))
		return func(c *CPU) {
			c.Cycles++
			if c.Data[AddrSREG]&bit != 0 {
				c.Cycles++
				c.setPC(target)
				return
			}
			c.setPC(next)
		}
	case OpBRBC:
		bit := byte(1) << d
		target := uint32(int64(next) + int64(in.K))
		return func(c *CPU) {
			c.Cycles++
			if c.Data[AddrSREG]&bit == 0 {
				c.Cycles++
				c.setPC(target)
				return
			}
			c.setPC(next)
		}

	case OpCPSE:
		return func(c *CPU) {
			c.Cycles++
			if c.Data[d] == c.Data[r] {
				c.setPC(c.skipNext(next))
				return
			}
			c.setPC(next)
		}
	case OpSBRC:
		bit := byte(1) << in.B
		return func(c *CPU) {
			c.Cycles++
			if c.Data[d]&bit == 0 {
				c.setPC(c.skipNext(next))
				return
			}
			c.setPC(next)
		}
	case OpSBRS:
		bit := byte(1) << in.B
		return func(c *CPU) {
			c.Cycles++
			if c.Data[d]&bit != 0 {
				c.setPC(c.skipNext(next))
				return
			}
			c.setPC(next)
		}
	case OpSBIC:
		a := uint16(IOBase + in.A)
		bit := byte(1) << in.B
		return func(c *CPU) {
			c.Cycles++
			if c.ReadData(a)&bit == 0 {
				c.setPC(c.skipNext(next))
				return
			}
			c.setPC(next)
		}
	case OpSBIS:
		a := uint16(IOBase + in.A)
		bit := byte(1) << in.B
		return func(c *CPU) {
			c.Cycles++
			if c.ReadData(a)&bit != 0 {
				c.setPC(c.skipNext(next))
				return
			}
			c.setPC(next)
		}

	case OpSPM:
		return func(c *CPU) {
			c.Cycles++
			c.execSPM()
			c.setPC(next)
		}
	case OpSLEEP:
		return func(c *CPU) {
			c.Cycles++
			c.Sleeping = true
			c.setPC(next)
		}
	case OpBREAK:
		opcode := wordAt(c.Flash, pc)
		return func(c *CPU) {
			c.Cycles++
			c.PC = pc
			c.raise(FaultBreak, opcode)
		}
	default: // OpInvalid
		opcode := wordAt(c.Flash, pc)
		return func(c *CPU) {
			c.Cycles++
			c.PC = pc
			c.raise(FaultInvalidOpcode, opcode)
		}
	}
}
