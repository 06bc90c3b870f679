package gadget_test

import (
	"testing"

	"mavr/internal/firmware"
	"mavr/internal/gadget"
)

// The canonical Fig. 4/5 gadgets are the best-known members of their
// shape classes: FindStkMove picks the Fig. 4 pivot out of PivotShapes,
// FindWriteMem the Fig. 5 stores out of StoreRuns, and the write_mem's
// pop half — which the attack enters first, to load registers — is
// also enumerated as a pop chain.
func TestShapesCoverCanonicalGadgets(t *testing.T) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	gs := gadget.Scan(img.Flash, 24)

	sm, err := gadget.FindStkMove(gs)
	if err != nil {
		t.Fatal(err)
	}
	if sm.SPHReg != 29 || sm.SPLReg != 28 || len(sm.PopRegs) != 2 || sm.PopOffset(28) != 1 {
		t.Errorf("stk_move = %+v, want Fig. 4: r29/r28 into SP, then pop r29, pop r28", sm)
	}

	wm, err := gadget.FindWriteMem(gs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if wm.StoreRegs != [3]int{5, 6, 7} || wm.PopsAddr != wm.StoreAddr+3 || len(wm.PopRegs) != 16 {
		t.Errorf("write_mem = %+v, want Fig. 5: std Y+1..3 of r5..r7, then 16 pops", wm)
	}

	foundLoader := false
	for _, c := range gadget.PopChains(gs) {
		if c.Addr == wm.PopsAddr && len(c.PopRegs) == len(wm.PopRegs) {
			foundLoader = true
		}
	}
	if !foundLoader {
		t.Errorf("canonical pop half at 0x%X missing from the pop chains", wm.PopsAddr)
	}
}

// A store run at a non-canonical displacement base (std Y+5..Y+7) with
// a tail that does not reload Y is invisible to FindWriteMem but must
// be enumerated by StoreRuns with its QBase, so synthesis can aim Y at
// Addr-QBase and compose a loader from a separate pop chain.
func TestStoreRunsGeneralizedDisplacement(t *testing.T) {
	img := assemble(t, `
		ijmp
		std Y+5, r10
		std Y+6, r11
		std Y+7, r12
		pop r4
		ret
		pop r29
		pop r28
		pop r12
		pop r11
		pop r10
		ret
	`)
	gs := gadget.Scan(img, 16)
	runs := gadget.StoreRuns(gs)
	if len(runs) != 1 {
		t.Fatalf("StoreRuns = %d entries, want 1 (%+v)", len(runs), runs)
	}
	r := runs[0]
	if r.Addr != 1 || r.QBase != 5 || r.StoreRegs != [3]int{10, 11, 12} {
		t.Errorf("run = %+v, want addr 1 qbase 5 regs 10..12", r)
	}
	if len(r.TailPops) != 1 || r.TailPops[0] != 4 {
		t.Errorf("tail pops = %v, want [4]", r.TailPops)
	}
	chains := gadget.PopChains(gs)
	var loader *gadget.PopChain
	for _, c := range chains {
		if len(c.PopRegs) == 5 {
			loader = c
		}
	}
	if loader == nil {
		t.Fatalf("no 5-pop loader chain in %+v", chains)
	}
	for _, reg := range []int{28, 29, 10, 11, 12} {
		if loader.PopOffset(reg) < 0 {
			t.Errorf("loader misses r%d: %+v", reg, loader)
		}
	}
}

// A four-long store run must yield exactly one entry — the last three
// stores — because entering earlier widens the write.
func TestStoreRunsMaximalRunAlignment(t *testing.T) {
	img := assemble(t, `
		ijmp
		std Y+1, r5
		std Y+2, r6
		std Y+3, r7
		std Y+4, r8
		pop r28
		ret
	`)
	runs := gadget.StoreRuns(gadget.Scan(img, 16))
	if len(runs) != 1 {
		t.Fatalf("StoreRuns = %d entries, want 1 (%+v)", len(runs), runs)
	}
	if runs[0].Addr != 2 || runs[0].QBase != 2 || runs[0].StoreRegs != [3]int{6, 7, 8} {
		t.Errorf("run = %+v, want the last three stores (addr 2, qbase 2, r6..r8)", runs[0])
	}
}

// Pivot shapes tolerate the interrupt-safe SREG restore between the SP
// writes and require at least one pop before ret.
func TestPivotShapesSregHop(t *testing.T) {
	img := assemble(t, `
		ijmp
		out 0x3e, r29
		out 0x3f, r0
		out 0x3d, r28
		pop r17
		pop r16
		ret
		out 0x3e, r25
		out 0x3d, r24
		ret
	`)
	pivots := gadget.PivotShapes(gadget.Scan(img, 16))
	if len(pivots) != 1 {
		t.Fatalf("PivotShapes = %d entries, want 1 (no-pop pivot must be rejected): %+v", len(pivots), pivots)
	}
	p := pivots[0]
	if p.Addr != 1 || p.SPHReg != 29 || p.SPLReg != 28 || len(p.PopRegs) != 2 {
		t.Errorf("pivot = %+v, want addr 1, r29/r28, 2 pops", p)
	}
}

// Shape enumeration on an empty or gadget-free image is empty, not an
// error — synthesis reports the exhausted search space itself.
func TestShapesEmptyImage(t *testing.T) {
	if got := gadget.PivotShapes(nil); len(got) != 0 {
		t.Errorf("PivotShapes(nil) = %v", got)
	}
	img := assemble(t, `
		nop
		inc r24
		ret
	`)
	gs := gadget.Scan(img, 8)
	if got := gadget.PivotShapes(gs); len(got) != 0 {
		t.Errorf("PivotShapes = %v, want none", got)
	}
	if got := gadget.StoreRuns(gs); len(got) != 0 {
		t.Errorf("StoreRuns = %v, want none", got)
	}
	if got := gadget.PopChains(gs); len(got) != 0 {
		t.Errorf("PopChains = %v, want none", got)
	}
}
