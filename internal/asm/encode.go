// Package asm provides an AVR instruction encoder, a label-aware program
// builder, a small two-pass text assembler and a disassembler for the
// instruction subset simulated by internal/avr.
//
// The MAVR firmware generator uses the Builder to synthesize autopilot
// applications; the gadget finder and the mavr-gadgets tool use the
// disassembler to print Fig. 4/5-style gadget listings.
package asm

// enc2 encodes a two-register instruction (add, sub, mov, ...).
func enc2(base uint16, d, r int) uint16 {
	return base | uint16(r&0x10)<<5 | uint16(r&0x0F) | uint16(d&0x1F)<<4
}

// encImm encodes a register-immediate instruction (ldi, cpi, subi, ...).
// d must be in 16..31.
func encImm(base uint16, d, k int) uint16 {
	return base | uint16(k&0xF0)<<4 | uint16(d-16)<<4 | uint16(k&0x0F)
}

// Two-register ALU operations.
func ADD(d, r int) uint16  { return enc2(0x0C00, d, r) }
func ADC(d, r int) uint16  { return enc2(0x1C00, d, r) }
func SUB(d, r int) uint16  { return enc2(0x1800, d, r) }
func SBC(d, r int) uint16  { return enc2(0x0800, d, r) }
func AND(d, r int) uint16  { return enc2(0x2000, d, r) }
func OR(d, r int) uint16   { return enc2(0x2800, d, r) }
func EOR(d, r int) uint16  { return enc2(0x2400, d, r) }
func MOV(d, r int) uint16  { return enc2(0x2C00, d, r) }
func CP(d, r int) uint16   { return enc2(0x1400, d, r) }
func CPC(d, r int) uint16  { return enc2(0x0400, d, r) }
func CPSE(d, r int) uint16 { return enc2(0x1000, d, r) }
func MUL(d, r int) uint16  { return enc2(0x9C00, d, r) }

// MOVW copies register pair r:r+1 to d:d+1 (even indices).
func MOVW(d, r int) uint16 { return 0x0100 | uint16(d/2)<<4 | uint16(r/2) }

// MULS multiplies signed (d, r in 16..31).
func MULS(d, r int) uint16 { return 0x0200 | uint16(d-16)<<4 | uint16(r-16) }

// MULSU multiplies signed by unsigned (d, r in 16..23).
func MULSU(d, r int) uint16 { return 0x0300 | uint16(d-16)<<4 | uint16(r-16) }

// Register-immediate operations (d in 16..31).
func LDI(d, k int) uint16  { return encImm(0xE000, d, k) }
func CPI(d, k int) uint16  { return encImm(0x3000, d, k) }
func SUBI(d, k int) uint16 { return encImm(0x5000, d, k) }
func SBCI(d, k int) uint16 { return encImm(0x4000, d, k) }
func ORI(d, k int) uint16  { return encImm(0x6000, d, k) }
func ANDI(d, k int) uint16 { return encImm(0x7000, d, k) }

// One-operand operations.
func COM(d int) uint16  { return 0x9400 | uint16(d)<<4 }
func NEG(d int) uint16  { return 0x9401 | uint16(d)<<4 }
func SWAP(d int) uint16 { return 0x9402 | uint16(d)<<4 }
func INC(d int) uint16  { return 0x9403 | uint16(d)<<4 }
func ASR(d int) uint16  { return 0x9405 | uint16(d)<<4 }
func LSR(d int) uint16  { return 0x9406 | uint16(d)<<4 }
func ROR(d int) uint16  { return 0x9407 | uint16(d)<<4 }
func DEC(d int) uint16  { return 0x940A | uint16(d)<<4 }

// ADIW/SBIW operate on pairs r24/r26/r28/r30 with a 6-bit constant.
func ADIW(d, k int) uint16 {
	return 0x9600 | uint16(k&0x30)<<2 | uint16((d-24)/2)<<4 | uint16(k&0x0F)
}
func SBIW(d, k int) uint16 {
	return 0x9700 | uint16(k&0x30)<<2 | uint16((d-24)/2)<<4 | uint16(k&0x0F)
}

// Stack operations.
func PUSH(d int) uint16 { return 0x920F | uint16(d)<<4 }
func POP(d int) uint16  { return 0x900F | uint16(d)<<4 }

// I/O operations (a is an I/O-space address 0..63).
func IN(d, a int) uint16   { return 0xB000 | uint16(a&0x30)<<5 | uint16(d)<<4 | uint16(a&0x0F) }
func OUT(a, r int) uint16  { return 0xB800 | uint16(a&0x30)<<5 | uint16(r)<<4 | uint16(a&0x0F) }
func CBI(a, b int) uint16  { return 0x9800 | uint16(a)<<3 | uint16(b) }
func SBI(a, b int) uint16  { return 0x9A00 | uint16(a)<<3 | uint16(b) }
func SBIC(a, b int) uint16 { return 0x9900 | uint16(a)<<3 | uint16(b) }
func SBIS(a, b int) uint16 { return 0x9B00 | uint16(a)<<3 | uint16(b) }

// Bit operations.
func BSET(s int) uint16   { return 0x9408 | uint16(s)<<4 }
func BCLR(s int) uint16   { return 0x9488 | uint16(s)<<4 }
func BLD(d, b int) uint16 { return 0xF800 | uint16(d)<<4 | uint16(b) }
func BST(d, b int) uint16 { return 0xFA00 | uint16(d)<<4 | uint16(b) }

// Skip operations.
func SBRC(d, b int) uint16 { return 0xFC00 | uint16(d)<<4 | uint16(b) }
func SBRS(d, b int) uint16 { return 0xFE00 | uint16(d)<<4 | uint16(b) }

// Load/store with displacement. useY selects the Y pointer, else Z.
func lddstd(base uint16, d, q int, useY bool) uint16 {
	w := base | uint16(q&0x20)<<8 | uint16(q&0x18)<<7 | uint16(q&0x07) | uint16(d)<<4
	if useY {
		w |= 0x0008
	}
	return w
}

// LDDY encodes ldd Rd, Y+q.
func LDDY(d, q int) uint16 { return lddstd(0x8000, d, q, true) }

// LDDZ encodes ldd Rd, Z+q.
func LDDZ(d, q int) uint16 { return lddstd(0x8000, d, q, false) }

// STDY encodes std Y+q, Rr.
func STDY(q, r int) uint16 { return lddstd(0x8200, r, q, true) }

// STDZ encodes std Z+q, Rr.
func STDZ(q, r int) uint16 { return lddstd(0x8200, r, q, false) }

// Indirect load/store modes.
func LDX(d int) uint16     { return 0x900C | uint16(d)<<4 }
func LDXInc(d int) uint16  { return 0x900D | uint16(d)<<4 }
func LDXDec(d int) uint16  { return 0x900E | uint16(d)<<4 }
func LDYInc(d int) uint16  { return 0x9009 | uint16(d)<<4 }
func LDYDec(d int) uint16  { return 0x900A | uint16(d)<<4 }
func LDZInc(d int) uint16  { return 0x9001 | uint16(d)<<4 }
func LDZDec(d int) uint16  { return 0x9002 | uint16(d)<<4 }
func STX(r int) uint16     { return 0x920C | uint16(r)<<4 }
func STXInc(r int) uint16  { return 0x920D | uint16(r)<<4 }
func STXDec(r int) uint16  { return 0x920E | uint16(r)<<4 }
func STYInc(r int) uint16  { return 0x9209 | uint16(r)<<4 }
func STYDec(r int) uint16  { return 0x920A | uint16(r)<<4 }
func STZInc(r int) uint16  { return 0x9201 | uint16(r)<<4 }
func STZDec(r int) uint16  { return 0x9202 | uint16(r)<<4 }
func LPMZ(d int) uint16    { return 0x9004 | uint16(d)<<4 }
func LPMZInc(d int) uint16 { return 0x9005 | uint16(d)<<4 }
func ELPMZ(d int) uint16   { return 0x9006 | uint16(d)<<4 }
func ELPMZInc(d int) uint16 {
	return 0x9007 | uint16(d)<<4
}

// Two-word direct load/store. addr is a data-space address.
func LDS(d int, addr uint16) [2]uint16 { return [2]uint16{0x9000 | uint16(d)<<4, addr} }
func STS(addr uint16, r int) [2]uint16 { return [2]uint16{0x9200 | uint16(r)<<4, addr} }

// Control transfer. target is an absolute word address; k a signed word
// displacement relative to the following instruction.
func JMP(target uint32) [2]uint16  { return longBranch(0x940C, target) }
func CALL(target uint32) [2]uint16 { return longBranch(0x940E, target) }

func longBranch(base uint16, target uint32) [2]uint16 {
	hi := uint16(target >> 16)
	return [2]uint16{base | (hi&0x3E)<<3 | hi&1, uint16(target)}
}

func RJMP(k int) uint16    { return 0xC000 | uint16(k&0x0FFF) }
func RCALL(k int) uint16   { return 0xD000 | uint16(k&0x0FFF) }
func BRBS(s, k int) uint16 { return 0xF000 | uint16(k&0x7F)<<3 | uint16(s) }
func BRBC(s, k int) uint16 { return 0xF400 | uint16(k&0x7F)<<3 | uint16(s) }

// Zero-operand instructions.
const (
	NOP    uint16 = 0x0000
	IJMP   uint16 = 0x9409
	EIJMP  uint16 = 0x9419
	ICALL  uint16 = 0x9509
	EICALL uint16 = 0x9519
	RET    uint16 = 0x9508
	RETI   uint16 = 0x9518
	SLEEP  uint16 = 0x9588
	BREAK  uint16 = 0x9598
	WDR    uint16 = 0x95A8
	LPM    uint16 = 0x95C8
	ELPM   uint16 = 0x95D8
	SPM    uint16 = 0x95E8
	SEI    uint16 = 0x9478
	CLI    uint16 = 0x94F8
)
