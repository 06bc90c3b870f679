package avr_test

import (
	"testing"

	"mavr/internal/asm"
	"mavr/internal/avr"
)

// Exhaustive semantic tests: every 8-bit ALU operation is executed on
// the simulator for all 65536 input pairs and compared against an
// independent bit-level reference model of the AVR datasheet flag
// equations.

// refFlags computes the SREG flags for result r of op(a, b) using the
// datasheet bit equations (written independently of exec.go).
type refFlags struct{ c, z, n, v, s, h bool }

func refAdd(a, b byte, carryIn bool) (byte, refFlags) {
	ci := byte(0)
	if carryIn {
		ci = 1
	}
	r := a + b + ci
	var f refFlags
	a7, b7, r7 := a>>7&1, b>>7&1, r>>7&1
	a3, b3, r3 := a>>3&1, b>>3&1, r>>3&1
	f.c = a7&b7|b7&^r7&1|^r7&a7&1 == 1
	f.h = a3&b3|b3&^r3&1|^r3&a3&1 == 1
	f.v = a7&b7&^r7&1|^a7&^b7&r7&1 == 1
	f.n = r7 == 1
	f.z = r == 0
	f.s = f.n != f.v
	return r, f
}

func refSub(a, b byte, carryIn bool) (byte, refFlags) {
	ci := byte(0)
	if carryIn {
		ci = 1
	}
	r := a - b - ci
	var f refFlags
	a7, b7, r7 := a>>7&1, b>>7&1, r>>7&1
	a3, b3, r3 := a>>3&1, b>>3&1, r>>3&1
	f.c = ^a7&b7|b7&r7|r7&^a7&1 == 1
	f.h = ^a3&b3|b3&r3|r3&^a3&1 == 1
	f.v = a7&^b7&^r7&1|^a7&b7&r7&1 == 1
	f.n = r7 == 1
	f.z = r == 0
	f.s = f.n != f.v
	return r, f
}

// aluRig executes a single fixed instruction repeatedly with varying
// inputs, reusing one CPU (a fresh CPU per case would dominate the
// exhaustive sweeps).
type aluRig struct {
	c *avr.CPU
}

func newALURig(t *testing.T, word uint16) *aluRig {
	t.Helper()
	c := avr.New()
	img := []byte{byte(word), byte(word >> 8), 0x00, 0x00 /* nop */}
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	return &aluRig{c: c}
}

func (r *aluRig) run(t *testing.T, a, b byte, carryIn bool) (byte, refFlags) {
	t.Helper()
	c := r.c
	c.PC = 0
	c.SetSREG(0)
	c.SetReg(16, a)
	c.SetReg(17, b)
	c.SetFlag(avr.FlagC, carryIn)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	var f refFlags
	f.c = c.Flag(avr.FlagC)
	f.z = c.Flag(avr.FlagZ)
	f.n = c.Flag(avr.FlagN)
	f.v = c.Flag(avr.FlagV)
	f.s = c.Flag(avr.FlagS)
	f.h = c.Flag(avr.FlagH)
	return c.Reg(16), f
}

// execALU runs a single two-register instruction with the given inputs
// and initial carry, returning the result register and flags.
func execALU(t *testing.T, word uint16, a, b byte, carryIn bool) (byte, refFlags, *avr.CPU) {
	t.Helper()
	rig := newALURig(t, word)
	got, f := rig.run(t, a, b, carryIn)
	return got, f, rig.c
}

func flagsEqual(got, want refFlags, checkH bool) bool {
	if got.c != want.c || got.z != want.z || got.n != want.n || got.v != want.v || got.s != want.s {
		return false
	}
	return !checkH || got.h == want.h
}

func TestADDExhaustive(t *testing.T) {
	rig := newALURig(t, asm.ADD(16, 17))
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			got, gf := rig.run(t, byte(a), byte(b), false)
			want, wf := refAdd(byte(a), byte(b), false)
			if got != want || !flagsEqual(gf, wf, true) {
				t.Fatalf("add %d+%d: got r=%d %+v, want r=%d %+v", a, b, got, gf, want, wf)
			}
		}
	}
}

func TestADCExhaustiveWithCarry(t *testing.T) {
	rig := newALURig(t, asm.ADC(16, 17))
	for a := 0; a < 256; a += 3 {
		for b := 0; b < 256; b++ {
			for _, ci := range []bool{false, true} {
				got, gf := rig.run(t, byte(a), byte(b), ci)
				want, wf := refAdd(byte(a), byte(b), ci)
				if got != want || !flagsEqual(gf, wf, true) {
					t.Fatalf("adc %d+%d+%v: got r=%d %+v, want r=%d %+v", a, b, ci, got, gf, want, wf)
				}
			}
		}
	}
}

func TestSUBExhaustive(t *testing.T) {
	rig := newALURig(t, asm.SUB(16, 17))
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			got, gf := rig.run(t, byte(a), byte(b), false)
			want, wf := refSub(byte(a), byte(b), false)
			if got != want || !flagsEqual(gf, wf, true) {
				t.Fatalf("sub %d-%d: got r=%d %+v, want r=%d %+v", a, b, got, gf, want, wf)
			}
		}
	}
}

func TestSBCExhaustiveZPropagation(t *testing.T) {
	// sbc result flags; Z is sticky (only cleared, never set) — the
	// multi-byte comparison behaviour.
	rig := newALURig(t, asm.SBC(16, 17))
	for a := 0; a < 256; a += 5 {
		for b := 0; b < 256; b++ {
			for _, ci := range []bool{false, true} {
				c := rig.c
				c.PC = 0
				c.SetSREG(0)
				c.SetReg(16, byte(a))
				c.SetReg(17, byte(b))
				c.SetFlag(avr.FlagC, ci)
				c.SetFlag(avr.FlagZ, true) // pretend low byte compared equal
				if err := c.Step(); err != nil {
					t.Fatal(err)
				}
				want, wf := refSub(byte(a), byte(b), ci)
				if got := c.Reg(16); got != want {
					t.Fatalf("sbc %d-%d-%v: result %d, want %d", a, b, ci, got, want)
				}
				wantZ := wf.z // true only if result 0...
				if wf.z {
					wantZ = true // ...and previous Z was true
				}
				if c.Flag(avr.FlagZ) != wantZ {
					t.Fatalf("sbc %d-%d-%v: Z=%v, want %v", a, b, ci, c.Flag(avr.FlagZ), wantZ)
				}
			}
		}
	}
}

func TestSBCClearsZOnNonzeroResult(t *testing.T) {
	word := asm.SBC(16, 17)
	c := avr.New()
	img := []byte{byte(word), byte(word >> 8), 0x88, 0x95}
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	c.SetReg(16, 5)
	c.SetReg(17, 1)
	c.SetFlag(avr.FlagZ, true)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.Flag(avr.FlagZ) {
		t.Error("Z stayed set on nonzero sbc result")
	}
}

func TestLogicOpsExhaustive(t *testing.T) {
	ops := []struct {
		name string
		word uint16
		ref  func(a, b byte) byte
	}{
		{"and", asm.AND(16, 17), func(a, b byte) byte { return a & b }},
		{"or", asm.OR(16, 17), func(a, b byte) byte { return a | b }},
		{"eor", asm.EOR(16, 17), func(a, b byte) byte { return a ^ b }},
	}
	for _, op := range ops {
		rig := newALURig(t, op.word)
		for a := 0; a < 256; a += 7 {
			for b := 0; b < 256; b++ {
				got, gf := rig.run(t, byte(a), byte(b), false)
				want := op.ref(byte(a), byte(b))
				if got != want {
					t.Fatalf("%s %d,%d: got %d, want %d", op.name, a, b, got, want)
				}
				if gf.v {
					t.Fatalf("%s: V set (logic ops clear V)", op.name)
				}
				if gf.z != (want == 0) || gf.n != (want&0x80 != 0) || gf.s != (gf.n != gf.v) {
					t.Fatalf("%s %d,%d: flags %+v", op.name, a, b, gf)
				}
			}
		}
	}
}

func TestCPMatchesSUBWithoutWriteback(t *testing.T) {
	rig := newALURig(t, asm.CP(16, 17))
	for a := 0; a < 256; a += 11 {
		for b := 0; b < 256; b++ {
			_, gf := rig.run(t, byte(a), byte(b), false)
			c := rig.c
			if got := c.Reg(16); got != byte(a) {
				t.Fatalf("cp modified rd: %d", got)
			}
			_, wf := refSub(byte(a), byte(b), false)
			if !flagsEqual(gf, wf, true) {
				t.Fatalf("cp %d,%d: flags %+v, want %+v", a, b, gf, wf)
			}
		}
	}
}

func TestINCDECExhaustive(t *testing.T) {
	rigI := newALURig(t, asm.INC(16))
	rigD := newALURig(t, asm.DEC(16))
	for a := 0; a < 256; a++ {
		gotI, fI := rigI.run(t, byte(a), 0, false)
		if gotI != byte(a)+1 {
			t.Fatalf("inc %d = %d", a, gotI)
		}
		if fI.v != (a == 0x7F) {
			t.Fatalf("inc %d: V=%v", a, fI.v)
		}
		gotD, fD := rigD.run(t, byte(a), 0, false)
		if gotD != byte(a)-1 {
			t.Fatalf("dec %d = %d", a, gotD)
		}
		if fD.v != (a == 0x80) {
			t.Fatalf("dec %d: V=%v", a, fD.v)
		}
	}
}

func TestNEGCOMExhaustive(t *testing.T) {
	rigN := newALURig(t, asm.NEG(16))
	rigC := newALURig(t, asm.COM(16))
	for a := 0; a < 256; a++ {
		gotN, fN := rigN.run(t, byte(a), 0, false)
		if gotN != byte(-int8(a))&0xFF {
			t.Fatalf("neg %d = %d", a, gotN)
		}
		_, wf := refSub(0, byte(a), false)
		if fN.c != wf.c || fN.z != wf.z || fN.v != wf.v {
			t.Fatalf("neg %d: flags %+v want %+v", a, fN, wf)
		}
		gotC, fC := rigC.run(t, byte(a), 0, false)
		if gotC != ^byte(a) {
			t.Fatalf("com %d = %d", a, gotC)
		}
		if !fC.c {
			t.Fatal("com must set C")
		}
	}
}

func TestShiftsExhaustive(t *testing.T) {
	rigL := newALURig(t, asm.LSR(16))
	rigA := newALURig(t, asm.ASR(16))
	rigR := newALURig(t, asm.ROR(16))
	for a := 0; a < 256; a++ {
		for _, ci := range []bool{false, true} {
			gotL, fL := rigL.run(t, byte(a), 0, ci)
			if gotL != byte(a)>>1 {
				t.Fatalf("lsr %d = %d", a, gotL)
			}
			if fL.c != (a&1 == 1) {
				t.Fatalf("lsr %d: C=%v", a, fL.c)
			}
			gotA, _ := rigA.run(t, byte(a), 0, ci)
			if gotA != byte(int8(a)>>1) {
				t.Fatalf("asr %d = %d, want %d", a, gotA, byte(int8(a)>>1))
			}
			gotR, fR := rigR.run(t, byte(a), 0, ci)
			want := byte(a) >> 1
			if ci {
				want |= 0x80
			}
			if gotR != want {
				t.Fatalf("ror %d (ci=%v) = %d, want %d", a, ci, gotR, want)
			}
			if fR.c != (a&1 == 1) {
				t.Fatalf("ror %d: C=%v", a, fR.c)
			}
		}
	}
}

func TestMULExhaustive(t *testing.T) {
	rig := newALURig(t, asm.MUL(16, 17))
	for a := 0; a < 256; a += 3 {
		for b := 0; b < 256; b += 3 {
			c := rig.c
			c.PC = 0
			c.SetSREG(0)
			c.SetReg(16, byte(a))
			c.SetReg(17, byte(b))
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
			want := uint16(a) * uint16(b)
			if got := c.RegPair(0); got != want {
				t.Fatalf("mul %d*%d = %d, want %d", a, b, got, want)
			}
			if c.Flag(avr.FlagC) != (want&0x8000 != 0) || c.Flag(avr.FlagZ) != (want == 0) {
				t.Fatalf("mul %d*%d flags wrong", a, b)
			}
		}
	}
}

func TestSWAPExhaustive(t *testing.T) {
	rig := newALURig(t, asm.SWAP(16))
	for a := 0; a < 256; a++ {
		got, _ := rig.run(t, byte(a), 0, false)
		if got != byte(a)<<4|byte(a)>>4 {
			t.Fatalf("swap %d = %d", a, got)
		}
	}
}

// 16-bit add/sub-immediate semantics across the carry boundary: adiw
// and sbiw on every register pair over a grid of operands and
// immediates, with the result and the C, Z, N, V and S flags checked
// against the datasheet's formulas (Rdh7 is bit 7 of the input's high
// byte, R15 bit 15 of the result). One rig per (opcode, pair, k) serves
// every operand.
func TestADIWSBIWExhaustive(t *testing.T) {
	for _, op := range []struct {
		name   string
		encode func(d, k int) uint16
		sub    bool
	}{{"adiw", asm.ADIW, false}, {"sbiw", asm.SBIW, true}} {
		for _, d := range []int{24, 26, 28, 30} {
			for k := 0; k < 64; k += 9 {
				c := newALURig(t, op.encode(d, k)).c
				for hi := 0; hi < 256; hi += 17 {
					for lo := 0; lo < 256; lo += 5 {
						in := uint16(hi)<<8 | uint16(lo)
						c.PC = 0
						c.SetSREG(0)
						c.SetRegPair(d, in)
						if err := c.Step(); err != nil {
							t.Fatal(err)
						}
						res, rdh7 := in+uint16(k), in&0x8000 != 0
						if op.sub {
							res = in - uint16(k)
						}
						r15 := res&0x8000 != 0
						// adiw: V = !Rdh7 & R15, C = !R15 & Rdh7.
						// sbiw: V = Rdh7 & !R15, C = R15 & !Rdh7.
						v, carry := !rdh7 && r15, !r15 && rdh7
						if op.sub {
							v, carry = rdh7 && !r15, r15 && !rdh7
						}
						want := [5]bool{carry, res == 0, r15, v, r15 != v}
						got := [5]bool{c.Flag(avr.FlagC), c.Flag(avr.FlagZ), c.Flag(avr.FlagN), c.Flag(avr.FlagV), c.Flag(avr.FlagS)}
						if c.RegPair(d) != res || got != want {
							t.Fatalf("%s r%d, %d on %04X: %04X with CZNVS %v; want %04X with %v",
								op.name, d, k, in, c.RegPair(d), got, res, want)
						}
					}
				}
			}
		}
	}
}

func TestMULSAndMULSU(t *testing.T) {
	cases := []struct {
		word uint16
		a, b byte
		want uint16
	}{
		{asm.MULS(16, 17), 0xFF, 0x02, 0xFFFE},  // -1 * 2 = -2
		{asm.MULS(16, 17), 0x80, 0x80, 0x4000},  // -128 * -128
		{asm.MULSU(16, 17), 0xFF, 0xFF, 0xFF01}, // -1 * 255 = -255
		{asm.MULSU(16, 17), 0x02, 0xFF, 0x01FE}, // 2 * 255
	}
	for i, tc := range cases {
		c := avr.New()
		img := []byte{byte(tc.word), byte(tc.word >> 8), 0x88, 0x95}
		if err := c.LoadFlash(img); err != nil {
			t.Fatal(err)
		}
		c.SetReg(16, tc.a)
		c.SetReg(17, tc.b)
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if got := c.RegPair(0); got != tc.want {
			t.Errorf("case %d: r1:r0 = 0x%04X, want 0x%04X", i, got, tc.want)
		}
	}
}

func TestSTSThenLDSAtExtendedIO(t *testing.T) {
	// Extended I/O (0x60..0x1FF) is reachable only via lds/sts.
	rig := newALURig(t, asm.STS(0x00C4, 16)[0])
	c := rig.c
	// Build a two-word program manually: sts 0xC4, r16 ; nop
	w := asm.STS(0x00C4, 16)
	img := []byte{byte(w[0]), byte(w[0] >> 8), byte(w[1]), byte(w[1] >> 8), 0, 0}
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	c.PC = 0
	c.SetReg(16, 0x9D)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.Data[0x00C4] != 0x9D {
		t.Errorf("extended IO write failed: 0x%02X", c.Data[0x00C4])
	}
}

func TestStackOverflowFault(t *testing.T) {
	c := avr.New()
	img := []byte{byte(asm.PUSH(0)), byte(asm.PUSH(0) >> 8), 0, 0}
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	c.SetSP(avr.SRAMBase) // one byte of stack left
	if err := c.Step(); err == nil {
		t.Fatal("push into the register file did not fault")
	}
	if c.Fault().Kind != avr.FaultStackOverflow {
		t.Errorf("fault = %v, want stack overflow", c.Fault().Kind)
	}
}

func TestFaultErrorString(t *testing.T) {
	c := avr.New()
	if err := c.LoadFlash([]byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	err := c.Step()
	if err == nil || err.Error() == "" {
		t.Fatal("fault has no message")
	}
	for _, k := range []avr.FaultKind{
		avr.FaultInvalidOpcode, avr.FaultPCOutOfRange, avr.FaultStackOverflow,
		avr.FaultBreak, avr.FaultCycleBudget, avr.FaultKind(99),
	} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}

func TestLoadFlashTooLarge(t *testing.T) {
	c := avr.New()
	if err := c.LoadFlash(make([]byte, avr.FlashSize+2)); err == nil {
		t.Error("oversized image accepted")
	}
}
