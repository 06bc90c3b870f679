package board_test

import (
	"bytes"
	"fmt"
	"testing"

	"mavr/internal/asm"
	"mavr/internal/avr"
	"mavr/internal/board"
	"mavr/internal/firmware"
)

// The resident bootloader really programs flash: pages go over USART1,
// the bootloader executes SPM erase/fill/write sequences, and the
// resulting flash matches the image bit for bit.
func TestBootloaderProgramsFlashViaSPM(t *testing.T) {
	img := testImage(t)
	app := board.NewAppProcessor()
	app.InstallBootloader(img.Bootloader, firmware.BootloaderStart)

	cycles, err := app.ProgramViaBootloader(img.Flash)
	if err != nil {
		t.Fatalf("bootloader programming failed: %v", err)
	}
	if cycles == 0 {
		t.Fatal("no cycles consumed")
	}
	// Flash content matches (the bootloader pads the last page with
	// erased bytes).
	if !bytes.Equal(app.CPU.Flash[:len(img.Flash)], img.Flash) {
		for i := range img.Flash {
			if app.CPU.Flash[i] != img.Flash[i] {
				t.Fatalf("flash mismatch at byte 0x%X: 0x%02X vs 0x%02X",
					i, app.CPU.Flash[i], img.Flash[i])
			}
		}
	}
	// The resident bootloader is still there (boot section untouched).
	for i, b := range img.Bootloader {
		if app.CPU.Flash[int(firmware.BootloaderStart)+i] != b {
			t.Fatal("bootloader destroyed by programming")
		}
	}
	t.Logf("programmed %d bytes in %d bootloader cycles (%.1f cycles/byte)",
		len(img.Flash), cycles, float64(cycles)/float64(len(img.Flash)))

	// And the programmed application must fly.
	app.Reset(true)
	if fault := app.RunCycles(500_000); fault != nil {
		t.Fatalf("application faulted after bootloader programming: %v", fault)
	}
}

// Reprogramming through the resident bootloader must leave no stale
// translated block behind: application A's store loop runs hot, the
// same pages are rewritten with application B (a different stored
// value) via the real SPM programming path, and B must run after reset.
func TestBootloaderReprogrammingInvalidatesTranslations(t *testing.T) {
	boot := testImage(t)
	app := board.NewAppProcessor()
	app.CPU.ForceInterpreter = false // independent of the env escape hatch
	app.InstallBootloader(boot.Bootloader, firmware.BootloaderStart)

	var st avr.BlockStats
	for _, want := range []byte{0xAA, 0x55} {
		img, err := asm.Assemble(fmt.Sprintf(`
	loop:
		ldi r16, 0x%02X
		sts 0x0400, r16
		rjmp loop
		`, want))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.ProgramViaBootloader(img); err != nil {
			t.Fatalf("program 0x%02X: %v", want, err)
		}
		app.Reset(true)
		if fault := app.RunCycles(1000); fault != nil {
			t.Fatalf("image 0x%02X faulted: %v", want, fault)
		}
		if got := app.CPU.Data[0x0400]; got != want {
			t.Fatalf("data[0x0400] = 0x%02X, want 0x%02X (stale translation after reprogramming?)", got, want)
		}
		st = app.CPU.TranslationStats()
		if st.Execs == 0 {
			t.Fatalf("image 0x%02X: block engine never engaged: %+v", want, st)
		}
	}
	if st.Invalidated == 0 {
		t.Errorf("reprogramming did not invalidate the hot block: %+v", st)
	}
}

// ProgramViaBootloader on an ISP build (no resident bootloader) fails
// loudly.
func TestBootloaderProgrammingRequiresResidentLoader(t *testing.T) {
	spec := firmware.TestApp()
	spec.Bootloader = false
	img, err := firmware.Generate(spec, firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	app := board.NewAppProcessor()
	if _, err := app.ProgramViaBootloader(img.Flash); err == nil {
		t.Fatal("programming succeeded without a bootloader")
	}
}

// Direct SPM semantics: erase, buffer fill, page write.
func TestSPMSemantics(t *testing.T) {
	c := avr.New()
	// Program: fill one word into the buffer, erase the page at Z,
	// write the page, then sleep. r0:r1 hold the word.
	img := []byte{
		// ldi r30, 0x00 ; ldi r31, 0x02  (Z = 0x0200, page 2)
		0xE0, 0xE0, 0xF2, 0xE0,
		// erase: ldi r24, 0x03 ; sts SPMCSR, r24 ; spm
		0x83, 0xE0, 0x80, 0x93, 0x57, 0x00, 0xE8, 0x95,
		// fill: ldi r24, 0x01 ; sts SPMCSR ; spm
		0x81, 0xE0, 0x80, 0x93, 0x57, 0x00, 0xE8, 0x95,
		// write: ldi r24, 0x05 ; sts SPMCSR ; spm
		0x85, 0xE0, 0x80, 0x93, 0x57, 0x00, 0xE8, 0x95,
		// sleep
		0x88, 0x95,
	}
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	c.SetReg(0, 0xAD)
	c.SetReg(1, 0xDE)
	for i := 0; i < 40 && c.Step() == nil; i++ {
	}
	if c.Fault() != nil {
		t.Fatalf("fault: %v", c.Fault())
	}
	if c.Flash[0x200] != 0xAD || c.Flash[0x201] != 0xDE {
		t.Errorf("page word = %02X %02X, want AD DE", c.Flash[0x200], c.Flash[0x201])
	}
	// The rest of the page was erased.
	for i := 0x202; i < 0x300; i++ {
		if c.Flash[i] != 0xFF {
			t.Fatalf("byte 0x%X not erased: 0x%02X", i, c.Flash[i])
		}
	}
}
