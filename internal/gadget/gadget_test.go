package gadget_test

import (
	"errors"
	"testing"

	"mavr/internal/asm"
	"mavr/internal/avr"
	"mavr/internal/firmware"
	"mavr/internal/gadget"
)

func assemble(t *testing.T, src string) []byte {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestScanFindsRetGadgets(t *testing.T) {
	img := assemble(t, `
		ijmp           ; control transfer: gadget suffixes start after it
		pop r16
		pop r17
		ret
		nop
		inc r24
		ret
	`)
	gs := gadget.Scan(img, 8)
	if len(gs) != 2 {
		t.Fatalf("found %d gadgets, want 2", len(gs))
	}
	if gs[0].Kind != gadget.KindPopChain {
		t.Errorf("gadget 0 kind = %v, want pop-chain", gs[0].Kind)
	}
	if gs[0].Addr != 1 {
		t.Errorf("gadget 0 at word %d, want 1", gs[0].Addr)
	}
}

func TestScanExcludesControlFlowInteriors(t *testing.T) {
	// A call before the ret breaks the straight-line property; the
	// longest valid suffix starts after it.
	img := assemble(t, `
		call far
		pop r16
		ret
	far:
		ret
	`)
	gs := gadget.Scan(img, 8)
	if len(gs) != 2 {
		t.Fatalf("found %d gadgets, want 2", len(gs))
	}
	first := gs[0]
	// The suffix must not include the call.
	for _, in := range first.Instrs {
		if in.Op == avr.OpCALL {
			t.Error("gadget suffix crossed a call")
		}
	}
}

func TestScanFindsUnintendedGadgets(t *testing.T) {
	// The second word of "call 0x12345" can itself start a valid
	// instruction stream — the word-aligned unintended gadgets of real
	// AVR ROP. Build an image where a ret hides inside data.
	b := asm.NewBuilder()
	b.Emit(asm.LDI(24, 1))
	b.DW(0x9508) // a literal ret word planted in a data table
	img, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	gs := gadget.Scan(img, 8)
	if len(gs) != 1 {
		t.Fatalf("found %d gadgets, want the planted ret", len(gs))
	}
}

func TestFindStkMovePrefersShortPopTail(t *testing.T) {
	img := assemble(t, `
		; long variant
		in r0, 0x3f
		out 0x3e, r29
		out 0x3f, r0
		out 0x3d, r28
		pop r28
		pop r29
		pop r16
		pop r17
		ret
		; short variant
		out 0x3e, r29
		out 0x3f, r0
		out 0x3d, r28
		pop r28
		pop r29
		ret
	`)
	sm, err := gadget.FindStkMove(gadget.Scan(img, 24))
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.PopRegs) != 2 {
		t.Errorf("selected pop tail %v, want the 2-pop variant", sm.PopRegs)
	}
	if sm.SPHReg != 29 || sm.SPLReg != 28 {
		t.Errorf("SP regs r%d/r%d", sm.SPHReg, sm.SPLReg)
	}
}

func TestFindStkMoveRejectsImagesWithout(t *testing.T) {
	img := assemble(t, `
		ldi r24, 1
		ret
	`)
	if _, err := gadget.FindStkMove(gadget.Scan(img, 24)); !errors.Is(err, gadget.ErrNoStkMove) {
		t.Errorf("want ErrNoStkMove, got %v", err)
	}
}

func TestFindWriteMemRequiresReloadableRegs(t *testing.T) {
	// Stores of r5..r7 but a pop chain that never reloads them: not
	// usable as the paper's combination gadget.
	img := assemble(t, `
		std Y+1, r5
		std Y+2, r6
		std Y+3, r7
		pop r20
		pop r21
		pop r22
		pop r23
		pop r24
		ret
	`)
	if _, err := gadget.FindWriteMem(gadget.Scan(img, 24), 5); !errors.Is(err, gadget.ErrNoWriteMem) {
		t.Errorf("want ErrNoWriteMem, got %v", err)
	}
}

func TestFindWriteMemOnPaperShape(t *testing.T) {
	img := assemble(t, `
		std Y+1, r5
		std Y+2, r6
		std Y+3, r7
		pop r29
		pop r28
		pop r17
		pop r16
		pop r7
		pop r6
		pop r5
		pop r4
		ret
	`)
	wm, err := gadget.FindWriteMem(gadget.Scan(img, 24), 8)
	if err != nil {
		t.Fatal(err)
	}
	if wm.StoreAddr != 0 || wm.PopsAddr != 3 {
		t.Errorf("addrs: store=%d pops=%d", wm.StoreAddr, wm.PopsAddr)
	}
	if wm.PopOffset(28) != 1 || wm.PopOffset(5) != 6 {
		t.Errorf("pop offsets wrong: r28=%d r5=%d", wm.PopOffset(28), wm.PopOffset(5))
	}
	if wm.PopOffset(31) != -1 {
		t.Error("PopOffset of unpopped register should be -1")
	}
}

func TestCountByKindAndDescribe(t *testing.T) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	gs := gadget.Scan(img.Flash, 24)
	counts := gadget.CountByKind(gs)
	if counts[gadget.KindStkMove] == 0 {
		t.Error("no stk_move gadgets in generated firmware")
	}
	if counts[gadget.KindWriteMem] == 0 {
		t.Error("no write_mem gadgets in generated firmware")
	}
	var perKind []int
	for _, n := range counts {
		perKind = append(perKind, n)
	}
	total := 0
	for _, n := range perKind {
		total += n
	}
	if total != len(gs) {
		t.Errorf("kind counts sum %d != %d gadgets", total, len(gs))
	}
	if gs[0].Describe() == "" || gs[0].Words() == 0 {
		t.Error("describe/words broken")
	}
}

// The gadget census scales with application size, the modularity
// observation of §VII-A1.
func TestGadgetCensusScalesWithFunctions(t *testing.T) {
	small := firmware.TestApp()
	big := firmware.TestApp()
	big.Functions = 200
	big.Seed = 0x1234
	imgS, err := firmware.Generate(small, firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	imgB, err := firmware.Generate(big, firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	nS := len(gadget.Scan(imgS.Flash, 24))
	nB := len(gadget.Scan(imgB.Flash, 24))
	if nB <= nS {
		t.Errorf("census did not grow with function count: %d vs %d", nS, nB)
	}
}
