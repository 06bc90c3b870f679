package attack

import (
	"errors"
	"testing"

	"mavr/internal/avr"
	"mavr/internal/firmware"
	"mavr/internal/gadget"
)

func testImage(t *testing.T) *firmware.Image {
	t.Helper()
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// An empty scan yields no writer candidates, and synthesis surfaces the
// exhausted search space as ErrNoWriterShapes.
func TestWriterCandidatesEmpty(t *testing.T) {
	if ws := writerCandidates(nil); len(ws) != 0 {
		t.Errorf("writerCandidates(nil) = %+v", ws)
	}
	var s Synthesis
	if _, err := s.PayloadFor(Write{Addr: 0x200, Vals: [3]byte{1, 2, 3}}); !errors.Is(err, ErrNoWriterShapes) {
		t.Errorf("PayloadFor without a writer = %v, want ErrNoWriterShapes", err)
	}
}

// The split (loader-borrowed) writer composition must execute on the
// emulator: build one artificially from the canonical gadget's two
// halves treated as separate gadgets — semantically the same
// alternation with extra junk frames — and land a write with it.
func TestSplitWriterCompositionLands(t *testing.T) {
	img := testImage(t)
	a, err := Analyze(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	wr := fig5Writer(a.WriteMem)
	wr.Fused = false
	w := Write{Addr: firmware.AddrFreeMem + 0x20, Vals: [3]byte{0xDE, 0xAD, 0x7F}}
	p, err := landingPayloadFor(a, wr, w)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(img.Flash)
	if err != nil {
		t.Fatal(err)
	}
	pr := probePayload(sim, img.Flash, p, w)
	if !pr.landed {
		t.Errorf("split-writer chain did not land: %+v", pr)
	}

	// And through a stealthy pivot as well — unless the doubled chain
	// (loader frames twice per write) legitimately outgrows the frame, in
	// which case the builder must say so rather than emit a broken chain.
	sp, err := stealthPayloadFor(a, a.StkMove, wr, w)
	if errors.Is(err, ErrPayloadTooLong) {
		t.Logf("split stealth chain does not fit the frame (expected on small frames): %v", err)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	pr = probePayload(sim, img.Flash, sp, w)
	if !pr.landed || !pr.clean() {
		t.Errorf("split-writer stealth chain outcome %q, want landed-clean", pr.outcome())
	}
}

// No-viable-stack-layout cases: a pivot whose SP-source registers the
// handler never saves cannot be aimed from the overflow, and a pivot
// with an enormous pop tail pushes the chain past the frame.
func TestStealthPayloadNoViableLayout(t *testing.T) {
	img := testImage(t)
	a, err := Analyze(img.ELF)
	if err != nil {
		t.Fatal(err)
	}
	wr := fig5Writer(a.WriteMem)
	w := Write{Addr: 0x300, Vals: [3]byte{1, 2, 3}}

	unsaved := &gadget.StkMove{Addr: a.StkMove.Addr, SPHReg: 3, SPLReg: 2, PopRegs: []int{28, 29}}
	if _, err := stealthPayloadFor(a, unsaved, wr, w); !errors.Is(err, ErrPivotUnsaved) {
		t.Errorf("unsaved pivot regs error = %v, want ErrPivotUnsaved", err)
	}

	bloated := &gadget.StkMove{Addr: a.StkMove.Addr, SPHReg: a.StkMove.SPHReg, SPLReg: a.StkMove.SPLReg}
	for i := 0; i < 60; i++ {
		bloated.PopRegs = append(bloated.PopRegs, i%30)
	}
	if _, err := stealthPayloadFor(a, bloated, wr, w); !errors.Is(err, ErrPayloadTooLong) {
		t.Errorf("bloated pivot error = %v, want ErrPayloadTooLong", err)
	}
}

// Writer candidates must reject store runs that cannot carry three
// independent bytes (duplicate store regs, or stores sourced from Y
// itself).
func TestWriterCandidatesRejectsDegenerateRuns(t *testing.T) {
	runsVia := func(storeRegs [3]int) []*WriterShape {
		// Build a synthetic gadget carrying the store run in question.
		gd := &gadget.Gadget{Addr: 0x100}
		for i, r := range storeRegs {
			gd.Instrs = append(gd.Instrs, avr.Instr{Op: avr.OpSTDY, D: r, Q: i + 1, Words: 1})
		}
		for _, r := range []int{29, 28, storeRegs[0], storeRegs[1], storeRegs[2]} {
			gd.Instrs = append(gd.Instrs, avr.Instr{Op: avr.OpPOP, D: r, Words: 1})
		}
		gd.Instrs = append(gd.Instrs, avr.Instr{Op: avr.OpRET, Words: 1})
		return writerCandidates([]*gadget.Gadget{gd})
	}
	if ws := runsVia([3]int{5, 5, 7}); len(ws) != 0 {
		t.Errorf("duplicate store regs accepted: %+v", ws)
	}
	if ws := runsVia([3]int{28, 6, 7}); len(ws) != 0 {
		t.Errorf("Y-sourced store accepted: %+v", ws)
	}
	if ws := runsVia([3]int{5, 6, 7}); len(ws) != 1 || !ws[0].Fused {
		t.Errorf("healthy run not composed: %+v", ws)
	}
}

// Known answers recorded before the candidate-order hash moved onto
// internal/detrand: the seed-1 tiebreak values, the resulting order of
// eight otherwise-equal writers, and the writer ranked first on the
// test application.
func TestCandidateOrderFrozen(t *testing.T) {
	var mix [4]uint64
	for i := range mix {
		mix[i] = mix64(1, uint64(i+1))
	}
	if w := [4]uint64{0x910a2dec89025cc1, 0x975835de1c9756ce, 0x1d0b14e4db018fed, 0x6e73e372e2338aca}; mix != w {
		t.Errorf("mix64(1, 1..4) = %#x, want %#x", mix, w)
	}
	var ws []*WriterShape
	for i := uint32(1); i <= 8; i++ {
		ws = append(ws, &WriterShape{Fused: true, StoreAddr: 0x100 * i})
	}
	orderWriters(ws, 1)
	var order [8]uint32
	for i, w := range ws {
		order[i] = w.StoreAddr
	}
	if w := [8]uint32{0x600, 0x800, 0x400, 0x100, 0x700, 0x300, 0x500, 0x200}; order != w {
		t.Errorf("seed-1 order = %#x, want %#x", order, w)
	}
	img := testImage(t)
	real := writerCandidates(gadget.Scan(img.ELF.Text, 24))
	orderWriters(real, 1)
	if len(real) != 1 || real[0].StoreAddr != 0xb4c {
		t.Errorf("testapp candidates: %+v; want one at 0xb4c", real)
	}
}
