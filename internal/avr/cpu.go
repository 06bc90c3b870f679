package avr

import (
	"errors"
	"fmt"
)

// FaultKind classifies the ways execution can go wrong. A fault on the
// application processor is what the MAVR master processor's timing
// analysis ultimately observes as a failed ROP attack.
type FaultKind int

const (
	// FaultInvalidOpcode is raised when the PC lands on an encoding that
	// is not a valid AVR instruction — the typical end of a ROP chain
	// built against the wrong (randomized) layout.
	FaultInvalidOpcode FaultKind = iota + 1
	// FaultPCOutOfRange is raised when the PC leaves the flash.
	FaultPCOutOfRange
	// FaultStackOverflow is raised when the stack pointer descends into
	// the I/O or register file region.
	FaultStackOverflow
	// FaultBreak is raised by the BREAK instruction.
	FaultBreak
	// FaultCycleBudget is raised when Run exhausts its cycle budget.
	FaultCycleBudget
)

func (k FaultKind) String() string {
	switch k {
	case FaultInvalidOpcode:
		return "invalid opcode"
	case FaultPCOutOfRange:
		return "PC out of range"
	case FaultStackOverflow:
		return "stack overflow"
	case FaultBreak:
		return "break"
	case FaultCycleBudget:
		return "cycle budget exhausted"
	}
	return "unknown fault"
}

// Fault describes an execution fault.
type Fault struct {
	Kind   FaultKind
	PC     uint32 // word address at which the fault occurred
	Opcode uint16
	Cycle  uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("avr fault at pc=0x%05X (byte 0x%05X), cycle %d: %s (opcode 0x%04X)",
		f.PC, f.PC*2, f.Cycle, f.Kind, f.Opcode)
}

// ErrSleeping is returned by Step when the core sleeps through the step:
// it executed SLEEP earlier and no interrupt source is pending.
var ErrSleeping = errors.New("avr: cpu sleeping")

// IOReadFunc intercepts a read of one data-space address.
type IOReadFunc func(cur byte) byte

// IOWriteFunc intercepts a write to one data-space address.
type IOWriteFunc func(v byte)

// CPU is a simulated ATmega2560 core.
type CPU struct {
	// Flash is the byte-addressed program memory (len FlashSize). It is
	// execute/LPM-only from the program's point of view; stores cannot
	// reach it (Harvard architecture).
	Flash []byte
	// Data is the linear data space: registers, I/O, extended I/O, SRAM.
	Data []byte
	// EEPROM is the persistent configuration memory (unused by the core
	// but part of the board model).
	EEPROM []byte

	// PC is the program counter, a word address.
	PC uint32
	// Cycles counts executed clock cycles at 16 MHz.
	Cycles uint64

	// Sleeping is set by SLEEP and cleared by interrupts/reset.
	Sleeping bool

	// OnStep, when set, observes every instruction before it executes
	// (used by tracing tools; nil in normal operation). Setting it also
	// disables the block translation engine so every step is observed.
	OnStep func(pc uint32, in Instr)

	// ForceInterpreter disables the block translation engine (block.go)
	// so Run dispatches every instruction through the interpreter. New
	// CPUs inherit it from the MAVR_AVR_INTERP=1 environment escape
	// hatch; conformance tests set it directly.
	ForceInterpreter bool

	fault       *Fault
	readHook    []IOReadFunc  // indexed by data-space address
	writeHk     []IOWriteFunc // indexed by data-space address
	pendingInts uint64
	intSuppress bool
	spmBuf      [SPMPageSize]byte
	spmBufInit  bool

	// Block translation engine state (see block.go). blocks[pc] caches
	// the translation entered at pc; blockHeat gates translation to hot
	// entries; pageGen holds per-flash-page generation counters that
	// invalidate stale translations. All allocated on first use.
	blocks    []*block
	blockHeat []uint8
	pageGen   []uint32
	blkStats  BlockStats
}

// New returns a CPU with zeroed memories and SP initialized to the top
// of SRAM, as avr-libc startup code would do.
func New() *CPU {
	c := &CPU{
		Flash:            make([]byte, FlashSize),
		Data:             make([]byte, DataSpaceSize),
		EEPROM:           make([]byte, EEPROMSize),
		ForceInterpreter: forceInterpEnv,
	}
	c.installEEPROM()
	c.SetSP(uint16(DataSpaceSize - 1))
	return c
}

// LoadFlash copies image into program memory starting at byte address 0.
func (c *CPU) LoadFlash(image []byte) error {
	if len(image) > len(c.Flash) {
		return fmt.Errorf("avr: image of %d bytes exceeds %d-byte flash", len(image), len(c.Flash))
	}
	for i := range c.Flash {
		c.Flash[i] = 0xFF // erased flash reads as all ones
	}
	copy(c.Flash, image)
	c.invalidateAllFlash()
	return nil
}

// Reset returns the core to its power-on state without touching flash.
func (c *CPU) Reset() {
	for i := range c.Data {
		c.Data[i] = 0
	}
	c.PC = 0
	c.Cycles = 0
	c.Sleeping = false
	c.fault = nil
	c.pendingInts = 0
	c.intSuppress = false
	c.SetSP(uint16(DataSpaceSize - 1))
}

// Fault returns the sticky fault, or nil while execution is healthy.
func (c *CPU) Fault() *Fault { return c.fault }

// Halted reports whether a fault has stopped the core.
func (c *CPU) Halted() bool { return c.fault != nil }

// Reg returns register r (0..31).
func (c *CPU) Reg(r int) byte { return c.Data[r] }

// SetReg sets register r (0..31).
func (c *CPU) SetReg(r int, v byte) { c.Data[r] = v }

// RegPair returns the 16-bit little-endian pair at registers lo,lo+1.
func (c *CPU) RegPair(lo int) uint16 {
	return uint16(c.Data[lo]) | uint16(c.Data[lo+1])<<8
}

// SetRegPair writes the 16-bit pair at registers lo,lo+1.
func (c *CPU) SetRegPair(lo int, v uint16) {
	c.Data[lo] = byte(v)
	c.Data[lo+1] = byte(v >> 8)
}

// SP returns the stack pointer.
func (c *CPU) SP() uint16 {
	return uint16(c.Data[AddrSPL]) | uint16(c.Data[AddrSPH])<<8
}

// SetSP writes the stack pointer.
func (c *CPU) SetSP(v uint16) {
	c.Data[AddrSPL] = byte(v)
	c.Data[AddrSPH] = byte(v >> 8)
}

// SREG returns the status register.
func (c *CPU) SREG() byte { return c.Data[AddrSREG] }

// SetSREG writes the status register.
func (c *CPU) SetSREG(v byte) { c.Data[AddrSREG] = v }

// Flag returns status flag bit f.
func (c *CPU) Flag(f int) bool { return c.Data[AddrSREG]&(1<<f) != 0 }

// SetFlag sets or clears status flag bit f.
func (c *CPU) SetFlag(f int, on bool) {
	if on {
		c.Data[AddrSREG] |= 1 << f
	} else {
		c.Data[AddrSREG] &^= 1 << f
	}
}

// HookRead installs fn as the read interceptor for data-space address
// addr (use IOBase+ioAddr for I/O registers). The function receives the
// current backing value and returns the value the program observes.
func (c *CPU) HookRead(addr uint16, fn IOReadFunc) {
	if c.readHook == nil {
		c.readHook = make([]IOReadFunc, DataSpaceSize)
	}
	c.readHook[addr] = fn
}

// HookWrite installs fn as the write observer for data-space address addr.
// The backing store is updated first, then fn is called with the value.
func (c *CPU) HookWrite(addr uint16, fn IOWriteFunc) {
	if c.writeHk == nil {
		c.writeHk = make([]IOWriteFunc, DataSpaceSize)
	}
	c.writeHk[addr] = fn
}

// ReadData reads one byte of data space, honoring read hooks.
func (c *CPU) ReadData(addr uint16) byte {
	if int(addr) >= len(c.Data) {
		return 0xFF // unimplemented external memory space
	}
	v := c.Data[addr]
	if c.readHook != nil {
		if fn := c.readHook[addr]; fn != nil {
			return fn(v)
		}
	}
	return v
}

// WriteData writes one byte of data space, honoring write hooks.
func (c *CPU) WriteData(addr uint16, v byte) {
	if int(addr) >= len(c.Data) {
		return
	}
	if addr == AddrSREG {
		c.noteSREGWrite(c.Data[addr], v)
	}
	c.Data[addr] = v
	if c.writeHk != nil {
		if fn := c.writeHk[addr]; fn != nil {
			fn(v)
		}
	}
}

// PushByte pushes one byte (post-decrement, AVR convention).
func (c *CPU) PushByte(v byte) {
	sp := c.SP()
	c.WriteData(sp, v)
	c.SetSP(sp - 1)
	if sp-1 < SRAMBase {
		c.raise(FaultStackOverflow, 0)
	}
}

// PopByte pops one byte (pre-increment).
func (c *CPU) PopByte() byte {
	sp := c.SP() + 1
	c.SetSP(sp)
	return c.ReadData(sp)
}

// PushPC pushes the 17-bit return address ret (a word address) as three
// bytes, low byte first, so that ascending memory holds [ext, hi, lo] —
// the big-endian layout visible in the paper's Fig. 6 stack dumps.
func (c *CPU) PushPC(ret uint32) {
	c.PushByte(byte(ret))
	c.PushByte(byte(ret >> 8))
	c.PushByte(byte(ret >> 16))
}

// PopPC pops a 3-byte return address.
func (c *CPU) PopPC() uint32 {
	ext := uint32(c.PopByte())
	hi := uint32(c.PopByte())
	lo := uint32(c.PopByte())
	return ext<<16 | hi<<8 | lo
}

func (c *CPU) raise(kind FaultKind, opcode uint16) {
	if c.fault == nil {
		c.fault = &Fault{Kind: kind, PC: c.PC, Opcode: opcode, Cycle: c.Cycles}
	}
}

// Step executes one instruction (or dispatches one interrupt): a
// one-cycle run whose predicate never holds, so it always interprets.
// It returns the CPU fault if the core is (or becomes) halted,
// ErrSleeping if the core slept through the step, and nil otherwise,
// including right after executing SLEEP.
func (c *CPU) Step() error {
	_, slept, fault := c.run(1, never)
	switch {
	case fault != nil:
		return fault
	case slept:
		return ErrSleeping
	}
	return nil
}

// Run executes until a fault occurs or maxCycles elapse. It returns the
// number of cycles consumed and the fault (nil if the budget expired or
// the CPU went to sleep).
func (c *CPU) Run(maxCycles uint64) (uint64, *Fault) {
	start := c.Cycles
	_, _, fault := c.run(maxCycles, nil)
	return c.Cycles - start, fault
}

// RunUntil executes until pred returns true, a fault occurs, or maxCycles
// elapse. It reports whether pred was satisfied. pred is tested before
// every instruction, so the whole call interprets.
func (c *CPU) RunUntil(maxCycles uint64, pred func(*CPU) bool) (bool, *Fault) {
	met, _, fault := c.run(maxCycles, pred)
	return met, fault
}

// never is Step's predicate.
func never(*CPU) bool { return false }

// run is the CPU's one execution loop; Run, RunUntil and Step are calls
// of it. Each iteration tests pred (when set), the sticky fault, the
// SEI/RETI one-instruction delay, pending interrupts, sleep and the PC
// range, then executes one instruction. It reports whether pred held,
// whether the budget ran out asleep, and the fault.
//
// A sleeping core with no pending interrupt consumes the remaining
// budget at once: nothing inside a call can wake it (interrupt sources
// are raised between calls), so the sleep window fast-forwards,
// board-level timing stays meaningful, and pred is tested once more at
// the horizon instead of stalling one cycle at a time.
func (c *CPU) run(maxCycles uint64, pred func(*CPU) bool) (met, slept bool, fault *Fault) {
	end := c.Cycles + maxCycles
	if end < c.Cycles { // budget overflow: run to the end of time
		end = ^uint64(0)
	}
	// Hot straight-line code leaves this loop entirely: translated
	// basic blocks (block.go) execute whole runs of instructions per
	// iteration. A predicate must see every instruction boundary, so a
	// predicated run interprets. The interpreter decodes straight from
	// flash, so it needs no invalidation and remains the reference path
	// for cold, traced, predicated or interrupt-window code.
	useBlocks := pred == nil && c.blocksEnabled()
	for c.Cycles < end {
		if pred != nil && pred(c) {
			return true, false, nil
		}
		if c.fault != nil {
			return false, false, c.fault
		}
		if c.intSuppress {
			// SEI/RETI one-instruction delay: execute exactly one more
			// instruction before recognizing pending interrupts.
			c.intSuppress = false
		} else if c.pendingInts != 0 && c.dispatchInterrupt() {
			continue
		}
		if c.Sleeping {
			c.Cycles = end
			return pred != nil && pred(c), true, nil
		}
		if c.PC >= FlashWords {
			c.raise(FaultPCOutOfRange, 0)
			return false, false, c.fault
		}
		if useBlocks && c.pendingInts == 0 && !c.intSuppress {
			if b := c.blockFor(c.PC); b != nil && c.Cycles+b.cycles <= end {
				// The block's worst-case cost fits the budget, so it
				// stops at the same instruction boundary the
				// interpreter would.
				c.blkStats.Execs++
				c.execBlock(b)
				if c.fault != nil {
					return false, false, c.fault
				}
				continue
			}
		}
		in := DecodeAt(c.Flash, c.PC)
		if c.OnStep != nil {
			c.OnStep(c.PC, in)
		}
		c.exec(in)
		c.blkStats.InterpSteps++
		if c.fault != nil {
			return false, false, c.fault
		}
	}
	return false, false, nil
}
