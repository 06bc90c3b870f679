package avr_test

import (
	"bytes"
	"fmt"
	"testing"

	"mavr/internal/asm"
	"mavr/internal/avr"
)

// hotLoopHeader is a prologue that calls sub enough times to push its
// entry PC past the block engine's heat threshold, so by the time the
// interesting part of each test runs, sub executes as a translated
// block rather than through the interpreter.
const hotLoopHeader = `
	ldi r24, 8
loop:
	call sub
	dec r24
	brne loop
`

// An SPM self-rewrite of an instruction inside a hot, cached block
// must invalidate the translation: the second call has to execute the
// rewritten code. MAVR's bootloader reprogramming path depends on it.
func TestBlockSPMRewriteInvalidatesTranslation(t *testing.T) {
	img, err := asm.Assemble(hotLoopHeader + `
	; fill buffer word 0 with "ldi r20, 2" (bytes 42 E0)
	ldi r16, 0x42
	mov r0, r16
	ldi r16, 0xE0
	mov r1, r16
	ldi r30, 0x00   ; Z = byte 0x0200 (word 0x100)
	ldi r31, 0x02
	ldi r17, 0x01   ; SPMEN: buffer fill
	sts 0x57, r17
	spm

	; fill buffer word 1 with "ret" (bytes 08 95)
	ldi r16, 0x08
	mov r0, r16
	ldi r16, 0x95
	mov r1, r16
	ldi r30, 0x02
	sts 0x57, r17
	spm

	; erase the page, then commit the buffer
	ldi r30, 0x00
	ldi r17, 0x03   ; SPMEN|PGERS
	sts 0x57, r17
	spm
	ldi r17, 0x05   ; SPMEN|PGWRT
	sts 0x57, r17
	spm

	call sub        ; must run the rewritten code
	sleep

.org 0x100
sub:
	ldi r20, 1
	ret
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := avr.New()
	c.ForceInterpreter = false // independent of the env escape hatch
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	if _, fault := c.Run(100_000); fault != nil {
		t.Fatalf("fault: %v", fault)
	}
	if !c.Sleeping {
		t.Fatal("program did not finish")
	}
	if got := c.Reg(20); got != 2 {
		t.Errorf("r20 = %d after SPM rewrite, want 2 (stale translation?)", got)
	}
	st := c.TranslationStats()
	if st.Execs == 0 || st.Translated == 0 {
		t.Errorf("block engine never engaged: %+v", st)
	}
	if st.Invalidated == 0 {
		t.Errorf("SPM rewrite did not invalidate any translation: %+v", st)
	}
}

// A partial InvalidateFlash whose byte range spans an SPM page
// boundary must invalidate a hot block that also spans it. The
// subroutine straddles the page-0/page-1 edge (byte 0x100); both of
// its ldi immediates — one on each side of the edge — are patched in
// place with a single invalidation covering the straddling range.
func TestBlockPartialInvalidateSpansBoundary(t *testing.T) {
	img, err := asm.Assemble(hotLoopHeader + `
	call sub
	sleep

.org 0x7F
sub:
	ldi r21, 1      ; word 0x7F: bytes 0xFE-0xFF, last word of page 0
	ldi r22, 1      ; word 0x80: bytes 0x100-0x101, first word of page 1
	ret
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := avr.New()
	c.ForceInterpreter = false
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	// Pin the layout the test depends on: "ldi r21,1" encodes as 0xE051
	// (low byte 0x51 at 0xFE), "ldi r22,1" as 0xE061 (low byte 0x61 at
	// 0x100).
	if c.Flash[0xFE] != 0x51 || c.Flash[0x100] != 0x61 {
		t.Fatalf("unexpected layout: % X", c.Flash[0xFE:0x104])
	}
	if _, fault := c.Run(100_000); fault != nil {
		t.Fatalf("fault: %v", fault)
	}
	if !c.Sleeping || c.Reg(21) != 1 || c.Reg(22) != 1 {
		t.Fatalf("first run: sleeping=%v r21=%d r22=%d", c.Sleeping, c.Reg(21), c.Reg(22))
	}
	before := c.TranslationStats()
	if before.Execs == 0 {
		t.Fatalf("block engine never engaged: %+v", before)
	}

	// Patch both ldi immediates to 9 (low nibble of the low byte) and
	// invalidate with one range crossing the page boundary at 0x100.
	c.Flash[0xFE] = 0x59
	c.Flash[0x100] = 0x69
	c.InvalidateFlash(0xFE, 0x102-0xFE)
	c.Reset()
	if _, fault := c.Run(100_000); fault != nil {
		t.Fatalf("fault after patch: %v", fault)
	}
	if c.Reg(21) != 9 || c.Reg(22) != 9 {
		t.Errorf("after partial invalidate: r21=%d r22=%d, want 9/9 (stale translation?)", c.Reg(21), c.Reg(22))
	}
	if after := c.TranslationStats(); after.Invalidated == before.Invalidated {
		t.Errorf("partial InvalidateFlash did not invalidate the hot block: %+v", after)
	}
}

// LoadFlash replaces the whole image and must drop every translated
// block: image A's subroutine runs hot, then image B, with the same
// layout and a different immediate, is loaded in its place.
func TestLoadFlashInvalidatesTranslations(t *testing.T) {
	c := avr.New()
	c.ForceInterpreter = false
	var st avr.BlockStats
	for _, want := range []byte{1, 2} {
		img, err := asm.Assemble(hotLoopHeader + fmt.Sprintf(`
	sleep
sub:
	ldi r20, %d
	ret
	`, want))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.LoadFlash(img); err != nil {
			t.Fatal(err)
		}
		c.Reset()
		if _, fault := c.Run(100_000); fault != nil {
			t.Fatal(fault)
		}
		if got := c.Reg(20); !c.Sleeping || got != want {
			t.Fatalf("image %d: sleeping=%v r20=%d (stale translation?)", want, c.Sleeping, got)
		}
		st = c.TranslationStats()
		if st.Execs == 0 {
			t.Fatalf("image %d: block engine never engaged: %+v", want, st)
		}
	}
	if st.Invalidated == 0 {
		t.Errorf("LoadFlash did not invalidate the hot block: %+v", st)
	}
}

// Patching only the operand word of a two-word instruction must
// invalidate the hot block holding its opcode, here with the opcode on
// page 0 and the operand on page 1: a block stamps every page its
// bytes cover, so the invalidation needs no widening.
func TestInvalidateFlashCoversTwoWordStraddle(t *testing.T) {
	img, err := asm.Assemble(hotLoopHeader + `
	sleep

.org 0x7F
sub:
	lds r20, 0x0400 ; opcode at bytes 0xFE-0xFF, operand at 0x100-0x101
	ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := avr.New()
	c.ForceInterpreter = false
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Flash[0xFE:0x102], []byte{0x40, 0x91, 0x00, 0x04}) {
		t.Fatalf("unexpected layout: % X", c.Flash[0xFE:0x102])
	}
	c.Data[0x0400] = 0xAA
	if _, fault := c.Run(100_000); fault != nil {
		t.Fatal(fault)
	}
	if !c.Sleeping || c.Reg(20) != 0xAA {
		t.Fatalf("first run: sleeping=%v r20=0x%02X", c.Sleeping, c.Reg(20))
	}
	before := c.TranslationStats()
	if before.Execs == 0 {
		t.Fatalf("block engine never engaged: %+v", before)
	}

	// Retarget the lds to 0x0401, invalidating only the operand word.
	c.Flash[0x100] = 0x01
	c.InvalidateFlash(0x100, 2)
	c.Reset()
	c.Data[0x0401] = 0xBB
	if _, fault := c.Run(100_000); fault != nil {
		t.Fatal(fault)
	}
	if got := c.Reg(20); got != 0xBB {
		t.Errorf("after patch: r20 = 0x%02X, want 0xBB (stale translation?)", got)
	}
	if after := c.TranslationStats(); after.Invalidated == before.Invalidated {
		t.Errorf("operand patch did not invalidate the hot block: %+v", after)
	}
}

// An interrupt raised by an I/O write hook in the middle of a
// translated block must bail to the interpreter at the exact
// instruction boundary the interpreter would dispatch at. Run the same
// program on a ForceInterpreter reference and the block engine in
// lockstep slices and require identical state throughout.
func TestBlockInterruptMidBlockMatchesInterpreter(t *testing.T) {
	img, err := asm.Assemble(`
	jmp start

.org 0x2E           ; vector 23 (TIMER0 OVF) lives at word 46
	jmp isr

.org 0x60
start:
	sei
loop:
	out 0x15, r20   ; hooked: raises TIMER0 OVF mid-block
	inc r20
	inc r21
	inc r22
	inc r23
	rjmp loop

.org 0x90
isr:
	inc r25
	reti
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	mk := func(force bool) *avr.CPU {
		c := avr.New()
		c.ForceInterpreter = force
		if err := c.LoadFlash(img); err != nil {
			t.Fatal(err)
		}
		c.HookWrite(0x20+0x15, func(byte) { c.RaiseInterrupt(avr.VectorTimer0Ovf) })
		return c
	}
	ref := mk(true)
	blk := mk(false)
	state := func(c *avr.CPU) string {
		return fmt.Sprintf("pc=%d cyc=%d sleep=%v pend=%v fault=%+v",
			c.PC, c.Cycles, c.Sleeping, c.PendingInterrupts(), c.Fault())
	}
	for s, budget := range []uint64{7, 64, 333, 1000, 5000, 5000, 5000} {
		ref.Run(budget)
		blk.Run(budget)
		if rs, bs := state(ref), state(blk); rs != bs {
			t.Fatalf("slice %d: interpreter %s != block engine %s", s, rs, bs)
		}
		if !bytes.Equal(ref.Data, blk.Data) {
			t.Fatalf("slice %d: data spaces diverged", s)
		}
	}
	if ref.Reg(25) == 0 {
		t.Fatal("interrupt handler never ran; the test exercised nothing")
	}
	st := blk.TranslationStats()
	if st.Execs == 0 {
		t.Errorf("block engine never engaged: %+v", st)
	}
	if st.Bails == 0 {
		t.Errorf("no mid-block interrupt bail recorded: %+v", st)
	}
}

// Run on a sleeping core fast-forwards the remaining cycle budget
// instead of returning after a single one-cycle sleep step, so
// board-level timing derived from Run's cycle accounting stays
// meaningful across sleep windows.
func TestRunSleepConsumesBudget(t *testing.T) {
	img, err := asm.Assemble(`
		nop
		sleep
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := avr.New()
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	used, fault := c.Run(1000)
	if fault != nil {
		t.Fatal(fault)
	}
	if used != 1000 {
		t.Errorf("Run consumed %d cycles, want the full 1000 budget", used)
	}
	if c.Cycles != 1000 {
		t.Errorf("Cycles = %d, want 1000", c.Cycles)
	}
	// A second Run keeps fast-forwarding while asleep.
	used, fault = c.Run(500)
	if fault != nil {
		t.Fatal(fault)
	}
	if used != 500 || c.Cycles != 1500 {
		t.Errorf("second Run: used %d, Cycles %d; want 500, 1500", used, c.Cycles)
	}
	// An interrupt still wakes it mid-budget.
	c.RaiseInterrupt(avr.VectorTimer0Ovf)
	if !c.PendingInterrupts() {
		t.Fatal("interrupt not pending")
	}
	c.Run(100)
	if c.Sleeping {
		t.Error("pending interrupt did not wake the sleeping core")
	}
}

// RunUntil on a sleeping core must fast-forward the remaining budget
// exactly like Run, instead of returning after a single one-cycle
// sleep step (the pre-fix behavior made bootloader handover timeouts
// return ~1M cycles early).
func TestRunUntilSleepConsumesBudget(t *testing.T) {
	img, err := asm.Assemble(`
	nop
	sleep
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := avr.New()
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	done, fault := c.RunUntil(1000, func(*avr.CPU) bool { return false })
	if fault != nil {
		t.Fatal(fault)
	}
	if done {
		t.Error("pred never true but RunUntil reported done")
	}
	if c.Cycles != 1000 {
		t.Errorf("Cycles = %d after sleeping RunUntil, want the full 1000 budget", c.Cycles)
	}
	// A cycle-horizon predicate is satisfied by the fast-forward itself.
	done, fault = c.RunUntil(500, func(c *avr.CPU) bool { return c.Cycles >= 1400 })
	if fault != nil {
		t.Fatal(fault)
	}
	if !done || c.Cycles != 1500 {
		t.Errorf("done=%v Cycles=%d, want true, 1500", done, c.Cycles)
	}
}

// The interpreter escape hatches must actually disable the engine:
// ForceInterpreter CPUs and CPUs with an OnStep tracer never execute
// translated blocks.
func TestBlockEngineDisabledByEscapeHatches(t *testing.T) {
	img, err := asm.Assemble(hotLoopHeader + `
	call sub
	sleep

.org 0x100
sub:
	ldi r20, 1
	ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		setup func(*avr.CPU)
	}{
		{"ForceInterpreter", func(c *avr.CPU) { c.ForceInterpreter = true }},
		{"OnStep", func(c *avr.CPU) {
			c.ForceInterpreter = false
			c.OnStep = func(uint32, avr.Instr) {}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := avr.New()
			tc.setup(c)
			if err := c.LoadFlash(img); err != nil {
				t.Fatal(err)
			}
			if _, fault := c.Run(100_000); fault != nil {
				t.Fatal(fault)
			}
			if !c.Sleeping || c.Reg(20) != 1 {
				t.Fatalf("program misbehaved: sleeping=%v r20=%d", c.Sleeping, c.Reg(20))
			}
			if st := c.TranslationStats(); st.Execs != 0 || st.Translated != 0 {
				t.Errorf("engine engaged despite escape hatch: %+v", st)
			}
		})
	}
}
