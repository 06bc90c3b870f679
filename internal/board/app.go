package board

import (
	"errors"
	"time"

	"mavr/internal/avr"
	"mavr/internal/firmware"
)

// CPUClockHz is the application processor clock (16 MHz).
const CPUClockHz = 16_000_000

// AppProcessor is the ATmega2560 running the (randomized) autopilot.
type AppProcessor struct {
	CPU *avr.CPU

	// ReadoutFuse models the lock bits: once set, external reads of the
	// program memory are refused, so an attacker can never obtain the
	// randomized binary (§V-A3).
	ReadoutFuse bool

	inReset bool

	bootCode  []byte
	bootStart uint32

	rx      []byte
	rx1     []byte // master-processor programming link (USART1)
	tx      func(byte)
	rawGyro byte
	onFeed  func()
	onBoot  func()
}

// ErrReadoutProtected is returned when debugger readout is attempted
// with the fuse set.
var ErrReadoutProtected = errors.New("board: readout protection fuse set")

// NewAppProcessor returns a powered-down application processor.
func NewAppProcessor() *AppProcessor {
	a := &AppProcessor{CPU: avr.New(), rawGyro: 10}
	a.CPU.HookRead(firmware.AddrUCSR0A, func(byte) byte {
		v := byte(1 << firmware.BitUDRE)
		if len(a.rx) > 0 {
			v |= 1 << firmware.BitRXC
		}
		return v
	})
	a.CPU.HookRead(firmware.AddrUDR0, func(byte) byte {
		if len(a.rx) == 0 {
			return 0
		}
		b := a.rx[0]
		a.rx = a.rx[1:]
		return b
	})
	a.CPU.HookWrite(firmware.AddrUDR0, func(v byte) {
		if a.tx != nil {
			a.tx(v)
		}
	})
	a.CPU.HookRead(firmware.AddrADCL, func(byte) byte { return a.rawGyro })
	// USART1: the master-processor link the bootloader listens on.
	a.CPU.HookRead(firmware.AddrUCSR1A, func(byte) byte {
		if len(a.rx1) > 0 {
			return 1 << 7 // RXC1
		}
		return 0
	})
	a.CPU.HookRead(firmware.AddrUDR1, func(byte) byte {
		if len(a.rx1) == 0 {
			return 0
		}
		b := a.rx1[0]
		a.rx1 = a.rx1[1:]
		return b
	})
	a.CPU.HookWrite(firmware.AddrWatchdogFeed, func(byte) {
		if a.onFeed != nil {
			a.onFeed()
		}
	})
	a.CPU.HookWrite(firmware.AddrBootNotify, func(byte) {
		if a.onBoot != nil {
			a.onBoot()
		}
	})
	return a
}

// InstallBootloader places resident bootloader code at the given flash
// byte address; it survives application reprogramming (the boot section
// is not erased by the serial loader).
func (a *AppProcessor) InstallBootloader(code []byte, start uint32) {
	a.bootCode = append([]byte(nil), code...)
	a.bootStart = start
	copy(a.CPU.Flash[start:], a.bootCode)
	a.CPU.InvalidateFlash(start, uint32(len(a.bootCode)))
}

// Program writes a new application image into the processor's flash via
// the bootloader and leaves the core in reset. The resident bootloader
// section, if any, is preserved.
func (a *AppProcessor) Program(image []byte) error {
	if err := a.CPU.LoadFlash(image); err != nil {
		return err
	}
	if a.bootCode != nil {
		copy(a.CPU.Flash[a.bootStart:], a.bootCode)
		a.CPU.InvalidateFlash(a.bootStart, uint32(len(a.bootCode)))
	}
	a.inReset = true
	return nil
}

// ReadFlashExternally models a debugger/ISP readout attempt.
func (a *AppProcessor) ReadFlashExternally() ([]byte, error) {
	if a.ReadoutFuse {
		return nil, ErrReadoutProtected
	}
	out := make([]byte, len(a.CPU.Flash))
	copy(out, a.CPU.Flash)
	return out, nil
}

// Reset releases (or re-enters) reset; coming out of reset clears the
// core state.
func (a *AppProcessor) Reset(run bool) {
	a.CPU.Reset()
	a.rx = nil
	a.rx1 = nil
	a.inReset = !run
}

// enterBootloader resets the core into the resident bootloader (the
// master asserts RESET and sends the magic byte sequence, §VI-B4).
func (a *AppProcessor) enterBootloader() error {
	if a.bootCode == nil {
		return errors.New("board: no resident bootloader (hardware-ISP build)")
	}
	a.Reset(true)
	a.CPU.PC = a.bootStart / 2
	return nil
}

// ProgramViaBootloader reprograms the application region at instruction
// level: the image is framed into the bootloader's page protocol,
// queued on USART1, and the resident bootloader executes the SPM
// sequences that rewrite flash. Returns the cycles the bootloader
// consumed. This is the §VI-B4 programming path run for real (the
// timed board model uses the equivalent baud-limited cost).
func (a *AppProcessor) ProgramViaBootloader(image []byte) (uint64, error) {
	if err := a.enterBootloader(); err != nil {
		return 0, err
	}
	var wire []byte
	for page := 0; page < len(image); page += avr.SPMPageSize {
		wire = append(wire, firmware.BootCmdProgram,
			byte(page>>16), byte(page>>8), byte(page))
		for i := 0; i < avr.SPMPageSize; i++ {
			if page+i < len(image) {
				wire = append(wire, image[page+i])
			} else {
				wire = append(wire, 0xFF)
			}
		}
	}
	wire = append(wire, firmware.BootCmdQuit)
	a.rx1 = wire

	start := a.CPU.Cycles
	budget := uint64(len(wire))*200 + 1_000_000
	done, fault := a.CPU.RunUntil(budget, func(c *avr.CPU) bool {
		return len(a.rx1) == 0 && c.PC < a.bootStart/2
	})
	if fault != nil {
		return a.CPU.Cycles - start, fault
	}
	if !done {
		return a.CPU.Cycles - start, errors.New("board: bootloader did not hand over to the application")
	}
	cycles := a.CPU.Cycles - start
	// The handover jumped to the reset vector; restart cleanly so the
	// application begins from power-on state.
	a.inReset = true
	return cycles, nil
}

// Running reports whether the core executes (not in reset, not halted).
func (a *AppProcessor) Running() bool { return !a.inReset && !a.CPU.Halted() }

// Receive queues serial bytes from the telemetry link.
func (a *AppProcessor) Receive(b ...byte) { a.rx = append(a.rx, b...) }

// RxIdle reports whether the firmware has read every byte queued on the
// telemetry link.
func (a *AppProcessor) RxIdle() bool { return len(a.rx) == 0 }

// OnTransmit sets the sink of every byte the firmware writes to the
// telemetry link (nil drops them).
func (a *AppProcessor) OnTransmit(fn func(byte)) { a.tx = fn }

// SetRawGyro sets the physical sensor sample the firmware reads.
func (a *AppProcessor) SetRawGyro(v byte) { a.rawGyro = v }

// RunCycles executes the core for the given number of clock cycles
// (no-op while in reset or halted).
func (a *AppProcessor) RunCycles(n uint64) *avr.Fault {
	if !a.Running() {
		return a.CPU.Fault()
	}
	_, fault := a.CPU.Run(n)
	return fault
}

// CyclesFor converts simulated wall time to CPU cycles.
func CyclesFor(d time.Duration) uint64 {
	return uint64(d.Nanoseconds()) * CPUClockHz / uint64(time.Second)
}
