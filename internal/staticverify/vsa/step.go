package vsa

import "mavr/internal/avr"

// Ctx is the context abstract execution runs against: the flash
// image, the validated pointer tables, and which flash bytes the
// pointer patcher rewrites per permutation (their values must never be
// baked into the analysis — they stay symbolic table provenance). The
// image, tables and patched set are shared read-only; the finding sink
// is per shard, so one Ctx serves one goroutine.
type Ctx struct {
	Img []byte
	// RegionStart/RegionEnd delimit the shuffleable code region. Every
	// flash byte below RegionEnd differs between permutations (the
	// fixed region's transfer words are patched too), so reads there
	// are top.
	RegionStart, RegionEnd uint32
	Tables                 []Table
	// patched marks flash byte offsets rewritten per permutation.
	patched bitset
	// report is set during the reporting pass, which appends structured
	// findings at function-relative offset off (the instruction being
	// stepped) to findings. Fixpoint iteration and fuzzing leave it
	// unset.
	report   bool
	off      uint32
	findings []Finding
}

// Step applies the abstract transfer function of one instruction to st
// against a bare context (no tables, nothing patched): the entry point
// the lockstep fuzzer drives. Control-transfer instructions only
// update non-control state (call-clobbered registers, stack height);
// the program counter is the analyzer's business.
func Step(st *State, in avr.Instr, img []byte) {
	c := Ctx{Img: img}
	c.Step(st, in)
}

// Step applies the abstract transfer function of one instruction.
func (c *Ctx) Step(st *State, in avr.Instr) {
	switch in.Op {
	case avr.OpNOP, avr.OpWDR, avr.OpSLEEP, avr.OpBREAK, avr.OpInvalid, avr.OpSPM:
		// SPM functions are excluded from analysis wholesale; a stray
		// SPM in an analyzed stream conservatively changes nothing the
		// domain tracks (flash reads already went through flashByte).

	case avr.OpMOVW:
		st.Regs[in.D] = st.Regs[in.R]
		st.Regs[in.D+1] = st.Regs[in.R+1]
		st.Roles[in.D] = st.Roles[in.R]
		st.Roles[in.D+1] = st.Roles[in.R+1]
		st.Tags[in.D/2] = st.Tags[in.R/2]
		st.Words[in.D/2] = st.Words[in.R/2]

	case avr.OpMOV:
		st.setReg(in.D, st.Regs[in.R])
	case avr.OpLDI:
		st.setReg(in.D, Val{Set: Const(byte(in.K))})

	case avr.OpADD, avr.OpADC:
		cin := Flag(FlagClear)
		if in.Op == avr.OpADC {
			cin = st.Flags[avr.FlagC]
		}
		res, cf := absAdd(st.Regs[in.D].Set, st.Regs[in.R].Set, cin, in.D == in.R)
		st.setReg(in.D, Val{Set: res})
		st.arithFlags(res, cf)

	case avr.OpSUB, avr.OpSBC:
		cin := Flag(FlagClear)
		if in.Op == avr.OpSBC {
			cin = st.Flags[avr.FlagC]
		}
		res, cf := absSub(st.Regs[in.D].Set, st.Regs[in.R].Set, cin, in.D == in.R)
		st.setReg(in.D, Val{Set: res})
		if in.Op == avr.OpSBC {
			st.subKeepZFlags(res, cf)
		} else {
			st.arithFlags(res, cf)
		}
	case avr.OpSUBI:
		res, cf := absSub(st.Regs[in.D].Set, Const(byte(in.K)), FlagClear, false)
		st.setReg(in.D, Val{Set: res})
		st.arithFlags(res, cf)
	case avr.OpSBCI:
		res, cf := absSub(st.Regs[in.D].Set, Const(byte(in.K)), st.Flags[avr.FlagC], false)
		st.setReg(in.D, Val{Set: res})
		st.subKeepZFlags(res, cf)

	case avr.OpCP:
		res, cf := absSub(st.Regs[in.D].Set, st.Regs[in.R].Set, FlagClear, in.D == in.R)
		st.arithFlags(res, cf)
	case avr.OpCPC:
		res, cf := absSub(st.Regs[in.D].Set, st.Regs[in.R].Set, st.Flags[avr.FlagC], in.D == in.R)
		st.subKeepZFlags(res, cf)
	case avr.OpCPI:
		res, cf := absSub(st.Regs[in.D].Set, Const(byte(in.K)), FlagClear, false)
		st.arithFlags(res, cf)

	case avr.OpAND, avr.OpOR, avr.OpEOR:
		res := absLogic(st.Regs[in.D].Set, st.Regs[in.R].Set, in.Op, in.D == in.R)
		st.setReg(in.D, Val{Set: res})
		st.logicFlags(res)
	case avr.OpANDI, avr.OpORI:
		res := absLogic(st.Regs[in.D].Set, Const(byte(in.K)), in.Op, false)
		st.setReg(in.D, Val{Set: res})
		st.logicFlags(res)

	case avr.OpCOM:
		res := logicConst(st.Regs[in.D].Set, 0xFF, avr.OpEOR)
		st.setReg(in.D, Val{Set: res})
		st.logicFlags(res)
		st.Flags[avr.FlagC] = FlagSet
	case avr.OpNEG:
		res, cf := absSub(Const(0), st.Regs[in.D].Set, FlagClear, false)
		st.setReg(in.D, Val{Set: res})
		st.arithFlags(res, cf)
	case avr.OpSWAP:
		v := st.Regs[in.D].Set
		if !v.IsTop() { // a permutation of the byte values maps top to top
			v = v.Map1(func(v byte) byte { return v<<4 | v>>4 })
		}
		st.setReg(in.D, Val{Set: v})
	case avr.OpINC, avr.OpDEC:
		overflowAt := byte(0x80)
		d := byte(1)
		if in.Op == avr.OpDEC {
			overflowAt, d = 0x7F, 0xFF
		}
		res := st.Regs[in.D].Set.Rotate(d)
		st.setReg(in.D, Val{Set: res})
		var vf Flag
		if res.Has(overflowAt) {
			vf |= FlagSet
		}
		if res.Size() > 1 || !res.Has(overflowAt) {
			vf |= FlagClear
		}
		st.Flags[avr.FlagV] = vf
		st.Flags[avr.FlagZ] = zFromRes(res)
		st.Flags[avr.FlagN] = signFlag(res)
		st.Flags[avr.FlagS] = FlagBoth

	case avr.OpASR, avr.OpLSR, avr.OpROR:
		// v>>1 lands in [0,128), so setting bit 7 on it adds 128.
		v := st.Regs[in.D].Set
		var res ByteSet
		switch in.Op {
		case avr.OpASR:
			res = v.Intersect(below(128)).Halve().Union(v.Minus(below(128)).Halve().Rotate(128))
		case avr.OpLSR:
			res = v.Halve()
		case avr.OpROR:
			if st.Flags[avr.FlagC].MayClear() {
				res = v.Halve()
			}
			if st.Flags[avr.FlagC].MaySet() {
				res = res.Union(v.Halve().Rotate(128))
			}
		}
		st.setReg(in.D, Val{Set: res})
		st.Flags[avr.FlagC] = bitFlag(v, 0)
		st.Flags[avr.FlagZ] = zFromRes(res)
		st.Flags[avr.FlagN] = signFlag(res)
		st.Flags[avr.FlagV] = FlagBoth
		st.Flags[avr.FlagS] = FlagBoth

	case avr.OpMUL, avr.OpMULS, avr.OpMULSU, avr.OpFMUL:
		st.setReg(0, topVal())
		st.setReg(1, topVal())
		st.Flags[avr.FlagC] = FlagBoth
		st.Flags[avr.FlagZ] = FlagBoth

	case avr.OpADIW, avr.OpSBIW:
		c.stepADIW(st, in)

	case avr.OpBSET:
		st.Flags[in.D] = FlagSet
	case avr.OpBCLR:
		st.Flags[in.D] = FlagClear
	case avr.OpBLD:
		t := st.Flags[avr.FlagT]
		var res ByteSet
		if t.MaySet() {
			res = st.Regs[in.D].Set.SetBit(in.B)
		}
		if t.MayClear() {
			res = res.Union(st.Regs[in.D].Set.ClearBit(in.B))
		}
		st.setReg(in.D, Val{Set: res})
	case avr.OpBST:
		st.Flags[avr.FlagT] = bitFlag(st.Regs[in.D].Set, in.B)

	case avr.OpIN:
		c.ioRead(st, in.A, in.D)
	case avr.OpOUT:
		c.ioWrite(st, in.A, st.Regs[in.D], in.D)
	case avr.OpCBI, avr.OpSBI:
		c.ioBit(st, in)

	case avr.OpLDS:
		c.dataLoad(st, in.D, []uint16{uint16(in.Target)})
	case avr.OpSTS:
		c.dataStore(st, []uint16{uint16(in.Target)}, in.D)

	case avr.OpLDX, avr.OpLDXInc, avr.OpLDXDec:
		c.stepIndirect(st, in, avr.RegXL)
	case avr.OpLDYInc, avr.OpLDYDec, avr.OpSTYInc, avr.OpSTYDec:
		c.stepIndirect(st, in, avr.RegYL)
	case avr.OpLDZInc, avr.OpLDZDec, avr.OpSTZInc, avr.OpSTZDec:
		c.stepIndirect(st, in, avr.RegZL)
	case avr.OpSTX, avr.OpSTXInc, avr.OpSTXDec:
		c.stepIndirect(st, in, avr.RegXL)
	case avr.OpLDDY:
		c.dataLoad(st, in.D, offsetAddrs(st.pairAddrs(avr.RegYL), uint16(in.Q)))
	case avr.OpLDDZ:
		c.dataLoad(st, in.D, offsetAddrs(st.pairAddrs(avr.RegZL), uint16(in.Q)))
	case avr.OpSTDY:
		c.dataStore(st, offsetAddrs(st.pairAddrs(avr.RegYL), uint16(in.Q)), in.D)
	case avr.OpSTDZ:
		c.dataStore(st, offsetAddrs(st.pairAddrs(avr.RegZL), uint16(in.Q)), in.D)

	case avr.OpLPM:
		c.flashLoad(st, 0, st.pairAddrs(avr.RegZL))
	case avr.OpLPMZ:
		c.flashLoad(st, in.D, st.pairAddrs(avr.RegZL))
	case avr.OpLPMZInc:
		addrs := st.pairAddrs(avr.RegZL)
		c.flashLoad(st, in.D, addrs)
		c.pairAdd(st, avr.RegZL, 1)
	case avr.OpELPM, avr.OpELPMZ, avr.OpELPMZInc:
		c.stepELPM(st, in)

	case avr.OpPUSH:
		st.H = st.H.Add(1)
	case avr.OpPOP:
		st.H = st.H.Add(-1)
		if !st.H.Top && st.H.Lo < 0 && !st.NegH {
			st.NegH = true
			c.finding("stack-underflow", "pop below the entry stack height: the function consumes its caller's frame")
		}
		st.setReg(in.D, topVal())

	case avr.OpRCALL, avr.OpCALL, avr.OpICALL, avr.OpEICALL:
		st.clobberCall()

	case avr.OpJMP, avr.OpRJMP, avr.OpIJMP, avr.OpEIJMP,
		avr.OpRET, avr.OpRETI, avr.OpBRBS, avr.OpBRBC,
		avr.OpCPSE, avr.OpSBRC, avr.OpSBRS, avr.OpSBIC, avr.OpSBIS:
		// Control flow: handled by the analyzer via block successors;
		// none of these touch registers, flags or the stack height.
	}
}

// clobberCall applies the calling convention at a call: caller-saved
// registers and all flags become unknown, callee-saved registers
// (r2-r17, r28/r29) and — under the balanced-callee modular assumption
// documented in DESIGN.md — the stack height survive.
func (st *State) clobberCall() {
	clobbered := []int{0, 1, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 30, 31}
	for _, r := range clobbered {
		st.setReg(r, topVal())
	}
	for i := range st.Flags {
		st.Flags[i] = FlagBoth
	}
	st.EIND = Top()
	st.RAMPZ = Top()
	st.Pend = Pending{}
}

func (c *Ctx) finding(kind, detail string) {
	if c.report {
		c.findings = append(c.findings, Finding{Off: c.off, Kind: kind, Detail: detail})
	}
}

// stepADIW handles ADIW/SBIW: exact 16-bit transfer with full flag
// precision when the pair enumerates, and SP-tag delta maintenance.
func (c *Ctx) stepADIW(st *State, in avr.Instr) {
	lo := in.D
	k := uint16(in.K)
	tag := st.Tags[lo/2]
	pairs := st.pairEnum(lo, pairCap)
	var cf, zf, nf, vf, sf Flag
	var out []uint16
	if pairs == nil {
		cf, zf, nf, vf, sf = FlagBoth, FlagBoth, FlagBoth, FlagBoth, FlagBoth
	} else {
		out = make([]uint16, 0, len(pairs))
		for _, v := range pairs {
			var r uint16
			var carry, ovf bool
			if in.Op == avr.OpADIW {
				r = v + k
				carry = r < v
				ovf = v&0x8000 == 0 && r&0x8000 != 0
			} else {
				r = v - k
				carry = r > v
				ovf = v&0x8000 != 0 && r&0x8000 == 0
			}
			neg := r&0x8000 != 0
			out = append(out, r)
			cf |= FlagOf(carry)
			zf |= FlagOf(r == 0)
			nf |= FlagOf(neg)
			vf |= FlagOf(ovf)
			sf |= FlagOf(neg != ovf)
		}
		sortU16(out)
		out = dedupU16(out)
	}
	st.setPair(lo, out)
	st.Flags[avr.FlagC] = cf
	st.Flags[avr.FlagZ] = zf
	st.Flags[avr.FlagN] = nf
	st.Flags[avr.FlagV] = vf
	st.Flags[avr.FlagS] = sf
	if tag.Ok {
		if in.Op == avr.OpADIW {
			tag.Delta = tag.Delta.Add(-int32(k))
		} else {
			tag.Delta = tag.Delta.Add(int32(k))
		}
		st.Tags[lo/2] = tag
	}
}

// stepIndirect handles the LD/ST X/Y/Z variants with pre-decrement and
// post-increment pointer updates, preserving SP tags across the ±1.
func (c *Ctx) stepIndirect(st *State, in avr.Instr, lo int) {
	switch in.Op {
	case avr.OpLDXDec, avr.OpLDYDec, avr.OpLDZDec, avr.OpSTXDec, avr.OpSTYDec, avr.OpSTZDec:
		c.pairAdd(st, lo, -1)
	}
	addrs := st.pairAddrs(lo)
	switch in.Op {
	case avr.OpLDX, avr.OpLDXInc, avr.OpLDXDec, avr.OpLDYInc, avr.OpLDYDec, avr.OpLDZInc, avr.OpLDZDec:
		c.dataLoad(st, in.D, addrs)
	default:
		c.dataStore(st, addrs, in.D)
	}
	switch in.Op {
	case avr.OpLDXInc, avr.OpLDYInc, avr.OpLDZInc, avr.OpSTXInc, avr.OpSTYInc, avr.OpSTZInc:
		c.pairAdd(st, lo, 1)
	}
}

// pairAdd shifts a pointer pair by ±n, preserving an SP tag by
// adjusting its delta.
func (c *Ctx) pairAdd(st *State, lo int, n int32) {
	tag := st.Tags[lo/2]
	pairs := st.pairEnum(lo, pairCap)
	if pairs != nil {
		for i := range pairs {
			pairs[i] += uint16(n)
		}
		sortU16(pairs)
		pairs = dedupU16(pairs)
	}
	st.setPair(lo, pairs)
	if tag.Ok {
		tag.Delta = tag.Delta.Add(-n)
		st.Tags[lo/2] = tag
	}
}

func (c *Ctx) stepELPM(st *State, in avr.Instr) {
	d := 0
	if in.Op != avr.OpELPM {
		d = in.D
	}
	var addrs32 []uint32
	z := st.pairAddrs(avr.RegZL)
	if z != nil && !st.RAMPZ.IsTop() && st.RAMPZ.Size()*len(z) <= addrCap {
		var buf [256]byte
		for _, hi := range st.RAMPZ.AppendValues(buf[:0]) {
			for _, a := range z {
				addrs32 = append(addrs32, uint32(hi)<<16|uint32(a))
			}
		}
	}
	if addrs32 == nil {
		st.setReg(d, topVal())
	} else {
		set := ByteSet{}
		offs := make([]uint32, 0, len(addrs32))
		for _, a := range addrs32 {
			set = set.Union(c.flashByte(a))
			offs = append(offs, a)
		}
		sortU32(offs)
		offs = dedupU32(offs)
		v := Val{Set: set}
		if len(offs) <= tabCap {
			v.Tab = offs
		}
		st.setReg(d, v)
	}
	if in.Op == avr.OpELPMZInc {
		// z+1 writes back both the Z pair and RAMPZ; modelling the
		// 17-bit carry precisely is not worth it.
		c.pairAdd(st, avr.RegZL, 1)
		st.RAMPZ = Top()
	}
}

// ioRead handles IN and any load that resolved to a single I/O
// address.
func (c *Ctx) ioRead(st *State, a int, d int) {
	switch a {
	case avr.IOAddrSPL, avr.IOAddrSPH:
		st.setReg(d, topVal())
		if st.H.Singleton() {
			kind := roleSPL
			if a == avr.IOAddrSPH {
				kind = roleSPH
			}
			st.Roles[d] = Role{Kind: kind, H: st.H}
			st.tryTag(d &^ 1)
		}
	case avr.IOAddrSREG:
		st.setReg(d, Val{Set: sregSet(st)})
	case avr.IOAddrEIND:
		st.setReg(d, Val{Set: st.EIND})
	case avr.IOAddrRAMPZ:
		st.setReg(d, Val{Set: st.RAMPZ})
	default:
		st.setReg(d, topVal())
	}
}

// tryTag establishes an SP tag on pair lo when both halves hold SP
// bytes read at the same exact height: the pair then equals
// SPentry - height.
func (st *State) tryTag(lo int) {
	rl, rh := st.Roles[lo], st.Roles[lo+1]
	if rl.Kind == roleSPL && rh.Kind == roleSPH &&
		rl.H.Singleton() && rh.H.Singleton() && rl.H.Equal(rh.H) {
		st.Tags[lo/2] = Tag{Ok: true, Delta: rl.H}
	}
}

// ioWrite handles OUT and stores that resolved to a single I/O
// address.
func (c *Ctx) ioWrite(st *State, a int, v Val, srcReg int) {
	switch a {
	case avr.IOAddrSPL, avr.IOAddrSPH:
		c.spWrite(st, a == avr.IOAddrSPH, v, srcReg)
	case avr.IOAddrSREG:
		for i := 0; i < 8; i++ {
			st.Flags[i] = bitFlag(v.Set, i)
		}
	case avr.IOAddrEIND:
		st.EIND = v.Set
	case avr.IOAddrRAMPZ:
		st.RAMPZ = v.Set
	}
}

// spWrite tracks the two-instruction stack-pointer write idiom. Any
// half-write makes the height unknown; completing the pattern from a
// tagged pair re-establishes the exact height (the new SP is
// SPentry - delta, so the new height is delta). A completed write from
// a constant pair re-points SP absolutely (startup init): height stays
// unknown but is not an escape. Anything else is an SP escape finding.
func (c *Ctx) spWrite(st *State, isHigh bool, v Val, srcReg int) {
	half := pendWroteSPL
	wantRole := srcReg%2 == 0 // SPL half must come from the even (low) register
	if isHigh {
		half = pendWroteSPH
		wantRole = srcReg%2 == 1
	}
	pair := int8(-1)
	delta := HeightTop()
	isConst := v.Set.Size() == 1
	tagged := false
	if wantRole && srcReg >= 0 {
		if tag := st.Tags[srcReg/2]; tag.Ok {
			tagged = true
			pair = int8(srcReg / 2)
			delta = tag.Delta
		}
	}
	if !tagged && !isConst {
		c.finding("sp-escape", "stack pointer written from a value not derived from SP or a constant")
	}

	prev := st.Pend
	st.H = HeightTop()
	if prev.Half != pendNone && prev.Half != half {
		// Second half: commit if both halves agree on the same still
		// valid tag snapshot, or both are constants (re-init).
		st.Pend = Pending{}
		if tagged && !prev.IsConst && prev.Pair == pair && prev.Delta.Equal(delta) {
			st.H = delta
		}
		return
	}
	st.Pend = Pending{Half: half, Pair: pair, Delta: delta, IsConst: isConst && !tagged}
}

// ioBit handles CBI/SBI on the tracked extended-pointer registers; a
// bit write to the stack pointer is an escape.
func (c *Ctx) ioBit(st *State, in avr.Instr) {
	f := func(v byte) byte { return v &^ (1 << in.B) }
	if in.Op == avr.OpSBI {
		f = func(v byte) byte { return v | 1<<in.B }
	}
	switch in.A {
	case avr.IOAddrEIND:
		st.EIND = st.EIND.Map1(f)
	case avr.IOAddrRAMPZ:
		st.RAMPZ = st.RAMPZ.Map1(f)
	case avr.IOAddrSPL, avr.IOAddrSPH:
		st.H = HeightTop()
		st.Pend = Pending{}
		c.finding("sp-escape", "stack pointer modified with an I/O bit instruction")
	}
}

// dataLoad abstracts a data-space load over the possible addresses.
// Addresses fully inside one validated pointer table give the value
// table provenance; the stack-pointer, SREG and extended-pointer I/O
// registers are modelled; everything else (SRAM, devices) is unknown.
func (c *Ctx) dataLoad(st *State, d int, addrs []uint16) {
	if len(addrs) == 1 {
		if a := int(addrs[0]) - avr.IOBase; a >= 0 && a < 64 {
			c.ioRead(st, a, d)
			return
		}
	}
	if v, ok := c.tableVal(addrs); ok {
		st.setReg(d, v)
		return
	}
	st.setReg(d, topVal())
}

// tableVal maps a bounded data-address set fully contained in one
// validated pointer table to flash provenance.
func (c *Ctx) tableVal(addrs []uint16) (Val, bool) {
	if len(addrs) == 0 || len(addrs) > tabCap {
		return Val{}, false
	}
	for _, t := range c.Tables {
		lo, hi := t.DataAddr, t.DataAddr+t.Words*2
		all := true
		for _, a := range addrs {
			if uint32(a) < lo || uint32(a) >= hi {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		offs := make([]uint32, len(addrs))
		set := ByteSet{}
		for i, a := range addrs {
			offs[i] = t.FlashOff + (uint32(a) - t.DataAddr)
			set = set.Union(c.flashByte(offs[i]))
		}
		return Val{Set: set, Tab: offs}, true
	}
	return Val{}, false
}

// dataStore abstracts a data-space store: stores never change
// registers, but a store that provably targets the SP/SREG/extended
// pointer I/O registers is modelled (and an SP store is an escape
// unless it follows the tracked idiom). Unbounded store addresses are
// assumed to stay in SRAM — the same assumption the hardware enforces
// for the stack itself (pushes below SRAMBase fault).
func (c *Ctx) dataStore(st *State, addrs []uint16, srcReg int) {
	if len(addrs) == 1 {
		if a := int(addrs[0]) - avr.IOBase; a >= 0 && a < 64 {
			c.ioWrite(st, a, st.Regs[srcReg], srcReg)
			return
		}
	}
	if addrs == nil {
		return
	}
	for _, a := range addrs {
		switch a {
		case avr.AddrSPL, avr.AddrSPH:
			st.H = HeightTop()
			st.Pend = Pending{}
			c.finding("sp-escape", "store may target the stack pointer")
		case avr.AddrSREG:
			for i := range st.Flags {
				st.Flags[i] = FlagBoth
			}
		case uint16(avr.IOBase + avr.IOAddrEIND):
			st.EIND = Top()
		case uint16(avr.IOBase + avr.IOAddrRAMPZ):
			st.RAMPZ = Top()
		}
	}
}

// wordOffs maps a bounded data-address set to per-entry flash word
// offsets when every address and its successor lie inside one
// validated table: the word at data address a is the word at flash
// offset FlashOff + (a - DataAddr) of the image under verification.
func (c *Ctx) wordOffs(addrs []uint16) []uint32 {
	if len(addrs) == 0 || len(addrs) > tabCap {
		return nil
	}
	for _, t := range c.Tables {
		lo, hi := t.DataAddr, t.DataAddr+t.Words*2
		all := true
		for _, a := range addrs {
			if uint32(a) < lo || uint32(a)+1 >= hi {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		offs := make([]uint32, len(addrs))
		for i, a := range addrs {
			offs[i] = t.FlashOff + (uint32(a) - t.DataAddr)
		}
		sortU32(offs)
		return dedupU32(offs)
	}
	return nil
}

// flashWordOffs validates a bounded flash-address set as matched-word
// offsets for an adjacent LPM pair. Offsets overlapping the shuffleable
// region are rejected: their bytes are layout-dependent, so a word
// descriptor over them would not translate across permutations.
func (c *Ctx) flashWordOffs(addrs []uint16) []uint32 {
	if len(addrs) == 0 || len(addrs) > tabCap {
		return nil
	}
	offs := make([]uint32, 0, len(addrs))
	for _, a := range addrs {
		o := uint32(a)
		if int(o)+1 >= len(c.Img) {
			return nil
		}
		if o < c.RegionEnd && o+1 >= c.RegionStart {
			return nil
		}
		offs = append(offs, o)
	}
	sortU32(offs)
	return dedupU32(offs)
}

// flashLoad abstracts LPM: a bounded Z set becomes flash provenance.
func (c *Ctx) flashLoad(st *State, d int, addrs []uint16) {
	if addrs == nil {
		st.setReg(d, topVal())
		return
	}
	set := ByteSet{}
	offs := make([]uint32, len(addrs))
	for i, a := range addrs {
		offs[i] = uint32(a)
		set = set.Union(c.flashByte(uint32(a)))
	}
	v := Val{Set: set}
	if len(offs) <= tabCap {
		v.Tab = offs
	}
	st.setReg(d, v)
}

// flashByte abstracts one flash byte read. Bytes the patcher rewrites
// and every byte below the region end (code, whose transfer words
// differ per permutation) are top; everything else is the image's
// byte, which the patch diff proves every permutation keeps.
func (c *Ctx) flashByte(off uint32) ByteSet {
	if c.patched.has(off) || off < c.RegionEnd || int(off) >= len(c.Img) {
		return Top()
	}
	return Const(c.Img[off])
}

func offsetAddrs(addrs []uint16, q uint16) []uint16 {
	if addrs == nil {
		return nil
	}
	out := make([]uint16, len(addrs))
	for i, a := range addrs {
		out[i] = a + q
	}
	sortU16(out)
	return dedupU16(out)
}

func sortU32(xs []uint32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func dedupU32(xs []uint32) []uint32 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// --- arithmetic cores ---

func cinVals(f Flag) (vals [2]byte, n int) {
	switch f {
	case FlagClear:
		return [2]byte{0}, 1
	case FlagSet:
		return [2]byte{1}, 1
	case FlagBoth:
		return [2]byte{0, 1}, 2
	}
	return vals, 0
}

// absAdd computes x+y+cin over the operand cross product (or the
// diagonal when both operands are the same register), returning the
// result set and the precise carry possibilities.
func absAdd(a, b ByteSet, cin Flag, same bool) (ByteSet, Flag) {
	return addSub(a, b, cin, same, false)
}

// absSub computes x-y-cin, returning the result set and the precise
// borrow possibilities.
func absSub(a, b ByteSet, cin Flag, same bool) (ByteSet, Flag) {
	return addSub(a, b, cin, same, true)
}

// addSub is absAdd, or absSub when sub is set. A cross product above
// binCap gives top. Off the diagonal it takes one member y of an
// operand at a time: adding (subtracting) d = y+cin modulo 256 rotates
// the other operand's set, and exactly its members x with x+d > 255 (x
// < d) carry (borrow), so the cost is set operations per member, not
// an enumeration of the product.
func addSub(a, b ByteSet, cin Flag, same, sub bool) (ByteSet, Flag) {
	civ, nci := cinVals(cin)
	na, nb := a.Size(), b.Size()
	if same {
		nb = 1
	}
	if na == 0 || nb == 0 || nci == 0 {
		return ByteSet{}, 0
	}
	if na*nb*nci > binCap {
		return Top(), FlagBoth
	}
	var res ByteSet
	var cf Flag
	var buf [256]byte
	switch {
	case same && sub: // x - x - c = -c, borrowing exactly when c = 1
		for _, c := range civ[:nci] {
			res = res.Add(-c)
			cf |= FlagOf(c > 0)
		}
		return res, cf
	case same:
		for _, x := range a.AppendValues(buf[:0]) {
			for _, c := range civ[:nci] {
				s := 2*int(x) + int(c)
				res = res.Add(byte(s))
				cf |= FlagOf(s > 0xFF)
			}
		}
		return res, cf
	}
	if !sub && nb > na {
		a, b = b, a
	}
	for _, y := range b.AppendValues(buf[:0]) {
		for _, c := range civ[:nci] {
			d := int(y) + int(c)
			var carry ByteSet
			if sub {
				res = res.Union(a.Rotate(byte(-d)))
				carry = a.Intersect(below(d))
			} else {
				res = res.Union(a.Rotate(byte(d)))
				carry = a.Minus(below(256 - d))
			}
			if !carry.IsEmpty() {
				cf |= FlagSet
			}
			if !a.Minus(carry).IsEmpty() {
				cf |= FlagClear
			}
		}
	}
	return res, cf
}

// absLogic computes AND/OR/EOR over the operand cross product (top
// above binCap), one member of the smaller operand at a time. The
// same-register forms are closed: x&x = x|x = x and x^x = 0.
func absLogic(a, b ByteSet, op avr.Op, same bool) ByteSet {
	if same && !a.IsEmpty() {
		if op == avr.OpEOR {
			return Const(0)
		}
		return a
	}
	na, nb := a.Size(), b.Size()
	if na == 0 || nb == 0 {
		return ByteSet{}
	}
	if na*nb > binCap {
		return Top()
	}
	if nb > na {
		a, b = b, a
	}
	var res ByteSet
	var buf [256]byte
	for _, k := range b.AppendValues(buf[:0]) {
		res = res.Union(logicConst(a, k, op))
	}
	return res
}

// logicConst returns {x op k : x in s} one bit of k at a time: AND
// clears the bits k lacks, OR sets the bits it has, EOR flips them.
func logicConst(s ByteSet, k byte, op avr.Op) ByteSet {
	for j := 0; j < 8; j++ {
		has := k&(1<<j) != 0
		switch {
		case (op == avr.OpAND || op == avr.OpANDI) && !has:
			s = s.ClearBit(j)
		case (op == avr.OpOR || op == avr.OpORI) && has:
			s = s.SetBit(j)
		case op == avr.OpEOR && has:
			s = s.FlipBit(j)
		}
	}
	return s
}

// arithFlags applies the ADD/SUB-family flag writes: precise C and Z,
// N from the result sign, everything else unknown.
func (st *State) arithFlags(res ByteSet, cf Flag) {
	st.Flags[avr.FlagC] = cf
	st.Flags[avr.FlagZ] = zFromRes(res)
	st.Flags[avr.FlagN] = signFlag(res)
	st.Flags[avr.FlagV] = FlagBoth
	st.Flags[avr.FlagS] = FlagBoth
	st.Flags[avr.FlagH] = FlagBoth
}

// subKeepZFlags is arithFlags for the CPC/SBC/SBCI family, whose Z can
// only be cleared (multi-byte compare semantics).
func (st *State) subKeepZFlags(res ByteSet, cf Flag) {
	prevZ := st.Flags[avr.FlagZ]
	st.arithFlags(res, cf)
	var zf Flag
	if res.Size() > 1 || (!res.IsEmpty() && !res.Has(0)) {
		zf |= FlagClear
	}
	if res.Has(0) {
		zf |= prevZ
	}
	st.Flags[avr.FlagZ] = zf
}

func (st *State) logicFlags(res ByteSet) {
	st.Flags[avr.FlagV] = FlagClear
	st.Flags[avr.FlagZ] = zFromRes(res)
	n := signFlag(res)
	st.Flags[avr.FlagN] = n
	st.Flags[avr.FlagS] = n // S = N xor V and V = 0
}

func zFromRes(res ByteSet) Flag {
	var f Flag
	if res.Has(0) {
		f |= FlagSet
	}
	if res.Size() > 1 || (!res.IsEmpty() && !res.Has(0)) {
		f |= FlagClear
	}
	return f
}

// sregSet builds the abstract SREG byte from the flag lattice: the
// bytes whose every bit i is a value flag i allows.
func sregSet(st *State) ByteSet {
	s := Top()
	for i, f := range st.Flags {
		if !f.MaySet() {
			s = s.Minus(bitSets[i])
		}
		if !f.MayClear() {
			s = s.Intersect(bitSets[i])
		}
	}
	return s
}
