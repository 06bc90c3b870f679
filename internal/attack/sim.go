// Package attack constructs the MAVR paper's three ROP attack
// generations against the simulated APM firmware (§IV):
//
//   - V1: a classic write-mem ROP chain that corrupts the gyroscope
//     configuration and leaves the stack smashed (the board then
//     executes garbage).
//   - V2: the stealthy attack — the stk_move gadget pivots SP into the
//     overflowed buffer, the chain performs its writes, repairs the
//     smashed frame with write_mem_gadget invocations and returns
//     cleanly to the victim's original return address.
//   - V3: the trampoline attack — repeated stealthy packets stage an
//     arbitrarily large chain into unused SRAM, then one final packet
//     pivots into it.
//
// The attacker's capabilities follow the paper's threat model: access
// to the unprotected application binary (with symbols), and a malicious
// ground station that can send arbitrary MAVLink bytes.
package attack

import (
	"mavr/internal/avr"
	"mavr/internal/board"
	"mavr/internal/mavlink"
)

// Sim is the attacker's offline copy of the victim system: the paper's
// attacker analyzes and test-runs the binary they possess before
// attacking the live UAV. The copy is the vehicle's own application
// processor model, with its downlink recorded for TX.
type Sim struct {
	*board.AppProcessor

	tx []byte
}

// NewSim boots image on a fresh application processor.
func NewSim(image []byte) (*Sim, error) {
	s := &Sim{AppProcessor: board.NewAppProcessor()}
	s.OnTransmit(func(b byte) { s.tx = append(s.tx, b) })
	if err := s.Load(image); err != nil {
		return nil, err
	}
	return s, nil
}

// Load programs image and releases the core from reset with an empty TX
// record, reusing the processor and its memories (flash, data space,
// translated blocks, I/O hooks). Sweeps that boot one randomized layout
// per trial should prefer this over allocating a fresh Sim per
// iteration.
func (s *Sim) Load(image []byte) error {
	if err := s.Program(image); err != nil {
		return err
	}
	s.Reset(true)
	s.tx = s.tx[:0]
	return nil
}

// SendFrame queues a MAVLink frame (oversize frames allowed — that is
// the attack vector).
func (s *Sim) SendFrame(f *mavlink.Frame) { s.Receive(f.MarshalOversize()...) }

// TX returns everything the firmware transmitted so far.
func (s *Sim) TX() []byte { return s.tx }

// RunUntilPC executes until the program counter reaches pc (a word
// address), reporting whether it was reached.
func (s *Sim) RunUntilPC(pc uint32, maxCycles uint64) (bool, *avr.Fault) {
	return s.CPU.RunUntil(maxCycles, func(c *avr.CPU) bool { return c.PC == pc })
}

// Deliver queues a frame, runs until the firmware has consumed it and
// then lets a settle margin elapse, returning any fault. This is how
// the attacker replays packets quickly against their offline copy.
func (s *Sim) Deliver(f *mavlink.Frame, margin uint64) *avr.Fault {
	s.SendFrame(f)
	drained, fault := s.CPU.RunUntil(50_000_000, func(*avr.CPU) bool { return s.RxIdle() })
	if fault != nil {
		return fault
	}
	if !drained {
		return &avr.Fault{Kind: avr.FaultCycleBudget, PC: s.CPU.PC, Cycle: s.CPU.Cycles}
	}
	return s.RunCycles(margin)
}
