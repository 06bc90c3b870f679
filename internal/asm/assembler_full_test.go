package asm_test

import (
	"testing"

	"mavr/internal/asm"
	"mavr/internal/avr"
)

// Every mnemonic family the text assembler supports, assembled and
// decoded back.
func TestAssemblerAllMnemonics(t *testing.T) {
	src := `
	start:
		nop
		ret
		reti
		ijmp
		eijmp
		icall
		eicall
		sleep
		wdr
		spm
		sei
		cli
		lpm
		elpm
		add r0, r1
		adc r2, r3
		sub r4, r5
		sbc r6, r7
		and r8, r9
		or r10, r11
		eor r12, r13
		mov r14, r15
		cp r16, r17
		cpc r18, r19
		cpse r20, r21
		mul r22, r23
		ldi r16, 0x12
		cpi r17, 34
		subi r18, 0x56
		sbci r19, 0x78
		ori r20, 0x9A
		andi r21, 0xBC
		adiw r24, 17
		sbiw r26, 42
		com r1
		neg r2
		swap r3
		inc r4
		dec r5
		asr r6
		lsr r7
		ror r8
		push r9
		pop r10
		bld r11, 3
		bst r12, 4
		sbrc r13, 5
		sbrs r14, 6
		cbi 0x05, 1
		sbi 0x05, 2
		sbic 0x05, 3
		sbis 0x05, 4
		in r15, 0x3f
		out 0x3e, r16
		lds r17, 0x0812
		sts 0x0813, r18
		ld r19, X
		ld r20, X+
		ld r21, -X
		ld r22, Y+
		ld r23, -Y
		ld r24, Z+
		ld r25, -Z
		ld r26, Y
		ld r27, Z
		ldd r28, Y+7
		ldd r29, Z+9
		st X, r30
		st X+, r31
		st -X, r0
		st Y+, r1
		st -Y, r2
		st Z+, r3
		st -Z, r4
		st Y, r5
		st Z, r6
		std Y+11, r7
		std Z+13, r8
		lpm r9, Z
		lpm r10, Z+
		elpm r11, Z
		elpm r12, Z+
		movw r24, r30
		jmp start
		call start
		jmp 0x40
		call 0x40
		rjmp start
		rcall start
		rjmp 2
		rcall -2
		brbs 3, start2
		brbc 4, start2
	start2:
		breq start2b
	start2b:
		brne start3
	start3:
		brcs start4
	start4:
		brcc start5
	start5:
		brlo start6
	start6:
		brsh done
	done:
		bset 5
		bclr 6
		.dw 0x1234, start
		.db 1, 2, 3
	`
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	// Every word up to the data directives must decode to a valid
	// instruction.
	limit := uint32(len(img)/2) - 4 // .dw/.db words at the end
	for pc := uint32(0); pc < limit; {
		in := avr.DecodeAt(img, pc)
		if in.Op == avr.OpInvalid {
			t.Fatalf("word at 0x%X does not decode", pc*2)
		}
		pc += uint32(in.Words)
	}
}

func TestAssemblerMoreErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":    "frobnicate r1",
		"bad reg":             "add r32, r0",
		"bad reg format":      "add x1, r0",
		"missing op two-reg":  "add r1",
		"bad bit":             "bld r1, x",
		"bad io num":          "cbi zz, 1",
		"bad in reg":          "in 0x3f, 0x3f",
		"bad out addr":        "out rr, r1",
		"bad lds addr":        "lds r1, qq",
		"bad sts reg":         "sts 0x100, 12",
		"bad st mode":         "st W, r1",
		"bad ld displacement": "ldd r1, Y+99",
		"negative disp":       "ldd r1, Y+-1",
		"bad lpm mode":        "lpm r1, Y",
		"bad brbs flag":       "brbs q, foo",
		"bad bset":            "bset q",
		"undefined label":     "rjmp nowhere",
		"rcall range":         "rcall 99999",
	}
	for name, src := range cases {
		if _, err := asm.Assemble(src); err == nil {
			t.Errorf("%s: no error for %q", name, src)
		}
	}
}

func TestAssemblerLabelOnSameLine(t *testing.T) {
	img, err := asm.Assemble("foo: bar: nop\n rjmp foo")
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != 4 {
		t.Fatalf("image %d bytes", len(img))
	}
	in := avr.DecodeAt(img, 1)
	if in.Op != avr.OpRJMP || in.K != -2 {
		t.Errorf("rjmp to double label mis-assembled: %+v", in)
	}
}

func TestAssemblerComments(t *testing.T) {
	img, err := asm.Assemble(`
		nop ; trailing comment
		// whole-line comment
		nop // другой comment
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != 4 {
		t.Errorf("image %d bytes, want 4", len(img))
	}
}

func TestBuilderAlignAndHere(t *testing.T) {
	b := asm.NewBuilder()
	b.Emit(asm.NOP, asm.NOP, asm.NOP, asm.NOP)
	if b.Here() != 4 {
		t.Errorf("Here = %d after four words, want 4", b.Here())
	}
	if b.HereBytes() != 8 {
		t.Errorf("HereBytes = %d, want 8", b.HereBytes())
	}
	b.Label("x")
	if addr, ok := b.LabelAddr("x"); !ok || addr != 4 {
		t.Errorf("LabelAddr(x) = %d, %v; want 4, true", addr, ok)
	}
}

func TestBuilderRelativeOutOfRange(t *testing.T) {
	b := asm.NewBuilder()
	b.RJMP("far")
	for i := 0; i < 3000; i++ {
		b.Emit(asm.NOP)
	}
	b.Label("far")
	if _, err := b.Assemble(); err == nil {
		t.Error("rjmp over 3000 words accepted")
	}
}

func TestBuilderDWLabelTooHigh(t *testing.T) {
	b := asm.NewBuilder()
	b.DWLabel("far")
	for i := 0; i < 0x10001; i++ {
		b.Emit(asm.NOP)
	}
	b.Label("far")
	if _, err := b.Assemble(); err == nil {
		t.Error("function pointer above 64K words accepted")
	}
}
