package avr_test

import (
	"testing"

	"mavr/internal/asm"
	"mavr/internal/avr"
)

// buildIntProgram assembles a program with a vector table whose
// TIMER0_OVF slot jumps to a counting handler.
func buildIntProgram(t *testing.T, body string) []byte {
	t.Helper()
	src := `
		jmp start        ; vector 0 (reset)
	.org 0x2E            ; vector 23 (TIMER0_OVF) at word 23*2
		jmp handler
	.org 0x80
	handler:
		push r24
		in r24, 0x3f
		push r24
		lds r24, 0x0400
		inc r24
		sts 0x0400, r24
		pop r24
		out 0x3f, r24
		pop r24
		reti
	.org 0x100
	start:
` + body
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestInterruptDispatchAndReti(t *testing.T) {
	img := buildIntProgram(t, `
		sei
	spin:
		inc r20
		rjmp spin
	`)
	c := avr.New()
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && c.Step() == nil; i++ {
	}
	c.RaiseInterrupt(avr.VectorTimer0Ovf)
	for i := 0; i < 100 && c.Step() == nil; i++ {
	}
	if got := c.Data[0x0400]; got != 1 {
		t.Errorf("handler ran %d times, want 1", got)
	}
	if c.Fault() != nil {
		t.Fatalf("fault: %v", c.Fault())
	}
	// The main loop must have resumed (r20 still incrementing).
	before := c.Reg(20)
	for i := 0; i < 20 && c.Step() == nil; i++ {
	}
	if c.Reg(20) == before {
		t.Error("main program did not resume after reti")
	}
	// I flag restored by reti.
	if !c.Flag(avr.FlagI) {
		t.Error("I flag clear after reti")
	}
}

func TestInterruptMaskedWhenIClear(t *testing.T) {
	img := buildIntProgram(t, `
	spin:
		inc r20
		rjmp spin
	`)
	c := avr.New()
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	c.RaiseInterrupt(avr.VectorTimer0Ovf)
	for i := 0; i < 200 && c.Step() == nil; i++ {
	}
	if got := c.Data[0x0400]; got != 0 {
		t.Errorf("handler ran with I clear (%d times)", got)
	}
	if !c.PendingInterrupts() {
		t.Error("pending interrupt lost")
	}
}

func TestInterruptWakesSleep(t *testing.T) {
	img := buildIntProgram(t, `
		sei
		sleep
		ldi r21, 0x99
	halt:
		rjmp halt
	`)
	c := avr.New()
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	// Run into sleep: the step that executes SLEEP returns nil, and a
	// step the core sleeps through returns ErrSleeping after one cycle.
	for i := 0; i < 600 && !c.Sleeping; i++ {
		if err := c.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if !c.Sleeping {
		t.Fatal("CPU did not sleep")
	}
	cyc := c.Cycles
	if err := c.Step(); err != avr.ErrSleeping || c.Cycles != cyc+1 {
		t.Fatalf("Step while asleep = %v after %d cycles, want ErrSleeping after 1", err, c.Cycles-cyc)
	}
	c.RaiseInterrupt(avr.VectorTimer0Ovf)
	for i := 0; i < 100 && c.Step() == nil; i++ {
	}
	if c.Data[0x0400] != 1 {
		t.Error("handler did not run after wake")
	}
	if c.Reg(21) != 0x99 {
		t.Error("execution did not continue after sleep")
	}
}

// The SEI one-instruction delay: the instruction immediately after sei
// must execute before a pending interrupt is taken. This is the
// hardware property that makes the Fig. 4 epilogue's split SP write
// safe.
func TestSEIOneInstructionDelay(t *testing.T) {
	img := buildIntProgram(t, `
		sei
		ldi r22, 0x55  ; must run before the pending interrupt
	spin:
		rjmp spin
	`)
	c := avr.New()
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	// Run to the start label (word 0x100).
	ok, _ := c.RunUntil(10_000, func(c *avr.CPU) bool { return c.PC == 0x100 })
	if !ok {
		t.Fatal("never reached start")
	}
	c.RaiseInterrupt(avr.VectorTimer0Ovf)
	// Step 1: sei. Step 2: must be ldi (delay), NOT the vector.
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if got := c.Reg(22); got != 0x55 {
		t.Errorf("instruction after sei preempted (r22=0x%02X)", got)
	}
	// Step 3 takes the interrupt.
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60 && c.Step() == nil; i++ {
	}
	if c.Data[0x0400] != 1 {
		t.Error("interrupt never taken after the delay slot")
	}
}

// The split stack-pointer write idiom must be atomic with respect to
// interrupts: in r0,SREG; cli; out SPH; out SREG (I restored); out SPL.
// An interrupt pending throughout must only be taken after SPL is
// written, never between the two halves.
func TestSPWriteIdiomIsInterruptAtomic(t *testing.T) {
	img := buildIntProgram(t, `
		sei
		ldi r28, 0x80  ; new SP low
		ldi r29, 0x10  ; new SP high -> 0x1080
		in r0, 0x3f
		cli
		out 0x3e, r29
		out 0x3f, r0   ; restores I=1, with one-instruction delay
		out 0x3d, r28
	spin:
		rjmp spin
	`)
	c := avr.New()
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	ok, _ := c.RunUntil(10_000, func(c *avr.CPU) bool { return c.PC == 0x100 })
	if !ok {
		t.Fatal("never reached start")
	}
	c.RaiseInterrupt(avr.VectorTimer0Ovf)
	// Run until the handler has executed.
	ok, fault := c.RunUntil(10_000, func(c *avr.CPU) bool { return c.Data[0x0400] == 1 })
	if !ok {
		t.Fatalf("handler never ran (fault: %v)", fault)
	}
	// The interrupt's pushes must have used the NEW, fully written SP
	// (0x1080), i.e. the return address lives just below it.
	// After the handler completes and reti pops, SP is back to 0x1080.
	ok, fault = c.RunUntil(10_000, func(c *avr.CPU) bool {
		return !c.PendingInterrupts() && c.SP() == 0x1080
	})
	if !ok {
		t.Fatalf("SP = 0x%04X after handler, want 0x1080 (fault: %v)", c.SP(), fault)
	}
	if c.Fault() != nil {
		t.Fatalf("fault: %v", c.Fault())
	}
}

func TestEEPROMReadWrite(t *testing.T) {
	img, err := asm.Assemble(`
		; write 0xAB to EEPROM[0x0102]
		ldi r24, 0x02
		out 0x21, r24  ; EEARL
		ldi r24, 0x01
		out 0x22, r24  ; EEARH
		ldi r24, 0xAB
		out 0x20, r24  ; EEDR
		sbi 0x1f, 2    ; EEMPE
		sbi 0x1f, 1    ; EEPE
		; read it back
		ldi r24, 0x00
		out 0x20, r24  ; clear EEDR
		sbi 0x1f, 0    ; EERE
		in r25, 0x20
		sleep
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := avr.New()
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40 && c.Step() == nil; i++ {
	}
	if got := c.EEPROM[0x0102]; got != 0xAB {
		t.Errorf("EEPROM[0x0102] = 0x%02X, want 0xAB", got)
	}
	if got := c.Reg(25); got != 0xAB {
		t.Errorf("read back 0x%02X, want 0xAB", got)
	}
}

func TestEEPROMWriteRequiresArming(t *testing.T) {
	img, err := asm.Assemble(`
		ldi r24, 0x00
		out 0x21, r24
		out 0x22, r24
		ldi r24, 0xCD
		out 0x20, r24
		sbi 0x1f, 1    ; EEPE without EEMPE: must be ignored
		sleep
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := avr.New()
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30 && c.Step() == nil; i++ {
	}
	if got := c.EEPROM[0]; got != 0 {
		t.Errorf("unarmed EEPE wrote EEPROM (0x%02X)", got)
	}
}

func TestEEPROMSurvivesReset(t *testing.T) {
	c := avr.New()
	c.EEPROM[7] = 0x42
	c.Reset()
	if c.EEPROM[7] != 0x42 {
		t.Error("reset cleared EEPROM (it is persistent storage)")
	}
	if err := c.LoadFlash([]byte{0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	if c.EEPROM[7] != 0x42 {
		t.Error("reprogramming cleared EEPROM")
	}
}
