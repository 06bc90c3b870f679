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
	"mavr/internal/firmware"
	"mavr/internal/mavlink"
)

// Sim is the attacker's offline copy of the victim system: the paper's
// attacker analyzes and test-runs the binary they possess before
// attacking the live UAV.
type Sim struct {
	CPU  *avr.CPU
	Gyro byte // raw sensor sample fed to the firmware

	rx []byte
	tx []byte
}

// NewSim boots image on a fresh simulated application processor with a
// scripted UART.
func NewSim(image []byte) (*Sim, error) {
	s := &Sim{CPU: avr.New(), Gyro: 10}
	if err := s.CPU.LoadFlash(image); err != nil {
		return nil, err
	}
	s.CPU.HookRead(firmware.AddrUCSR0A, func(byte) byte {
		v := byte(1 << firmware.BitUDRE)
		if len(s.rx) > 0 {
			v |= 1 << firmware.BitRXC
		}
		return v
	})
	s.CPU.HookRead(firmware.AddrUDR0, func(byte) byte {
		if len(s.rx) == 0 {
			return 0
		}
		b := s.rx[0]
		s.rx = s.rx[1:]
		return b
	})
	s.CPU.HookWrite(firmware.AddrUDR0, func(v byte) { s.tx = append(s.tx, v) })
	s.CPU.HookRead(firmware.AddrADCL, func(byte) byte { return s.Gyro })
	return s, nil
}

// Reset reloads image and returns the simulator to power-on state,
// reusing the CPU and its memories (flash, data space, translated
// blocks, I/O hooks). Sweeps that boot one randomized layout per trial
// should prefer this over allocating a fresh Sim per iteration.
func (s *Sim) Reset(image []byte) error {
	if err := s.CPU.LoadFlash(image); err != nil {
		return err
	}
	s.CPU.Reset()
	s.rx = s.rx[:0]
	s.tx = s.tx[:0]
	return nil
}

// Send queues raw serial bytes for the firmware to receive.
func (s *Sim) Send(data []byte) { s.rx = append(s.rx, data...) }

// SendFrame queues a MAVLink frame (oversize frames allowed — that is
// the attack vector).
func (s *Sim) SendFrame(f *mavlink.Frame) { s.Send(f.MarshalOversize()) }

// TX returns everything the firmware transmitted so far.
func (s *Sim) TX() []byte { return s.tx }

// RxDrained reports whether the firmware consumed all queued bytes.
func (s *Sim) RxDrained() bool { return len(s.rx) == 0 }

// Run executes up to maxCycles and returns the fault, if any.
func (s *Sim) Run(maxCycles uint64) *avr.Fault {
	_, fault := s.CPU.Run(maxCycles)
	return fault
}

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
	drained, fault := s.CPU.RunUntil(50_000_000, func(*avr.CPU) bool { return len(s.rx) == 0 })
	if fault != nil {
		return fault
	}
	if !drained {
		return &avr.Fault{Kind: avr.FaultCycleBudget, PC: s.CPU.PC, Cycle: s.CPU.Cycles}
	}
	return s.Run(margin)
}
