package board

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mavr/internal/avr"
	"mavr/internal/core"
	"mavr/internal/firmware"
)

// TelemetryBaud is the GCS link rate (3DR telemetry radio default).
const TelemetryBaud = 57600

// SystemConfig assembles a full MAVR board.
type SystemConfig struct {
	Master MasterConfig
	// Unprotected builds a plain APM without the MAVR hardware: the
	// application processor runs the original binary, there is no
	// master, no watchdog and no readout fuse — the paper's attack
	// target baseline.
	Unprotected bool
	// SoftwareOnly builds the §VIII-A strawman the authors rejected:
	// the binary is randomized once at flash time on the host, with no
	// master processor. The permutation is fixed for the device's
	// lifetime (failed attempts leak information) and there is no
	// fault tolerance — a failed attack leaves the processor
	// inoperable until a physical power cycle.
	SoftwareOnly bool
	// SoftwareSeed drives the flash-time permutation in SoftwareOnly
	// mode.
	SoftwareSeed int64
}

// System is the complete simulated vehicle: application processor,
// master processor, external flash and the telemetry link to the
// ground station, all sharing one simulated clock.
//
// Concurrency contract: exactly one goroutine (the "driver") may call
// FlashFirmware, Boot and Run, and only the driver may touch App,
// Master or Flash while Run is in flight. The telemetry link
// endpoints — SendToUAV, DrainGCS and Now — are safe for concurrent
// use from any goroutine, so a network server (cmd/mavr-fleetd) can
// shuttle uplink and downlink bytes while the driver advances the
// simulation.
type System struct {
	App    *AppProcessor
	Master *Master
	Flash  *ExternalFlash

	cfg     SystemConfig
	clockNS atomic.Int64 // simulated time in nanoseconds

	// linkMu guards the telemetry byte queues, which cross the
	// driver/network goroutine boundary.
	linkMu sync.Mutex
	toUAV  []timedByte
	toGCS  []byte

	lastFault  *avr.Fault
	reflashes  []StartupReport
	nextTickAt time.Duration
	events     []Event
	profile    *FlightProfile
}

// TimerTickInterval is the TIMER0 overflow period raised by the board
// (1 kHz system tick).
const TimerTickInterval = time.Millisecond

type timedByte struct {
	at time.Duration
	b  byte
}

// NewSystem builds a board.
func NewSystem(cfg SystemConfig) *System {
	s := &System{cfg: cfg}
	s.App = NewAppProcessor()
	s.Flash = NewExternalFlash(ExternalFlashCapacity)
	if !cfg.Unprotected && !cfg.SoftwareOnly {
		s.Master = NewMaster(cfg.Master, s.Flash, s.App, s.Now)
	}
	s.App.OnTransmit(func(b byte) {
		s.linkMu.Lock()
		s.toGCS = append(s.toGCS, b)
		s.linkMu.Unlock()
	})
	return s
}

// Now returns the simulated time. Safe for concurrent use.
func (s *System) Now() time.Duration { return time.Duration(s.clockNS.Load()) }

// advanceClock moves the simulated clock forward by d and returns the
// new time. Only the driver goroutine advances the clock.
func (s *System) advanceClock(d time.Duration) time.Duration {
	return time.Duration(s.clockNS.Add(int64(d)))
}

// FastForward advances the simulated clock to t if t is ahead of it
// (never backwards). A supervisor replacing a crashed board fast-
// forwards the fresh system to the predecessor's clock so the
// vehicle's simulated time stays monotonic across restarts — ground
// stations ignore regressing sim timestamps, and a clock jumping back
// would mask real silence.
func (s *System) FastForward(t time.Duration) {
	for {
		cur := s.clockNS.Load()
		if int64(t) <= cur || s.clockNS.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// FlashFirmware runs the host-side preprocessing phase and uploads the
// result to the external flash (or, on an unprotected board, programs
// the application processor directly with the original binary). A
// prototype build's resident serial bootloader is installed in the boot
// section first.
func (s *System) FlashFirmware(img *firmware.Image) error {
	if img.Bootloader != nil {
		s.App.InstallBootloader(img.Bootloader, firmware.BootloaderStart)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		return err
	}
	if s.cfg.Unprotected {
		if err := s.App.Program(img.ELF.Text); err != nil {
			return err
		}
		s.App.Reset(true)
		return nil
	}
	if s.cfg.SoftwareOnly {
		// Randomize exactly once, at flash time, on the host.
		rng := rand.New(rand.NewSource(s.cfg.SoftwareSeed))
		r, err := core.Randomize(pre, core.Permutation(rng, len(pre.Blocks)))
		if err != nil {
			return err
		}
		if err := s.App.Program(r.Image); err != nil {
			return err
		}
		s.App.Reset(true)
		return nil
	}
	return s.Flash.Store(pre)
}

// Boot powers the vehicle on. On a MAVR board the master may randomize
// and reprogram; the returned report carries the startup overhead
// (Table II). The simulated clock advances by the programming time.
func (s *System) Boot() (StartupReport, error) {
	if s.cfg.Unprotected || s.cfg.SoftwareOnly {
		s.App.Reset(true)
		return StartupReport{}, nil
	}
	rep, err := s.Master.Boot(s.Now())
	if err != nil {
		return rep, err
	}
	s.advanceClock(rep.Total)
	if rep.Randomized {
		s.logEvent(EventRandomized, "%d bytes programmed in %v", rep.ImageBytes, rep.Total.Round(time.Millisecond))
	}
	s.logEvent(EventBoot, "application started")
	return rep, nil
}

// SendToUAV queues raw telemetry-uplink bytes; they arrive at the UAV
// paced by the telemetry baud rate. Safe for concurrent use: senders on
// different goroutines are serialized onto the link in call order, each
// transmission starting no earlier than the previous one finished (a
// half-duplex radio sends one byte at a time).
func (s *System) SendToUAV(data []byte) {
	byteTime := time.Duration(10 * int64(time.Second) / TelemetryBaud)
	s.linkMu.Lock()
	defer s.linkMu.Unlock()
	at := s.Now()
	if n := len(s.toUAV); n > 0 && s.toUAV[n-1].at > at {
		at = s.toUAV[n-1].at
	}
	for _, b := range data {
		at += byteTime
		s.toUAV = append(s.toUAV, timedByte{at: at, b: b})
	}
}

// DrainGCS returns and clears the bytes received by the ground station.
// Safe for concurrent use with the driver goroutine.
func (s *System) DrainGCS() []byte {
	s.linkMu.Lock()
	out := s.toGCS
	s.toGCS = nil
	s.linkMu.Unlock()
	return out
}

// Reflashes returns the reports of watchdog-triggered reprogrammings.
func (s *System) Reflashes() []StartupReport { return s.reflashes }

// LastFault exposes the most recent application-processor fault.
func (s *System) LastFault() *avr.Fault { return s.lastFault }

// Run advances the simulation by d, in small quanta: serial bytes are
// delivered on schedule, the application processor executes at 16 MHz,
// and the master's watchdog analysis runs continuously. Detected
// failures trigger reset + re-randomization + reprogramming, whose
// duration also elapses on the simulated clock (§V-C, §V-D).
//
// Run is driver-only: it must never be called concurrently with itself
// or with Boot/FlashFirmware (see the System concurrency contract).
func (s *System) Run(d time.Duration) error {
	const quantum = 250 * time.Microsecond
	now := s.Now()
	end := now + d
	for now < end {
		step := quantum
		if end-now < step {
			step = end - now
		}
		now = s.advanceClock(step)

		// Deliver due uplink bytes.
		s.linkMu.Lock()
		for len(s.toUAV) > 0 && s.toUAV[0].at <= now {
			s.App.Receive(s.toUAV[0].b)
			s.toUAV = s.toUAV[1:]
		}
		s.linkMu.Unlock()

		if now >= s.nextTickAt {
			s.nextTickAt = now + TimerTickInterval
			if s.App.Running() {
				s.App.CPU.RaiseInterrupt(avr.VectorTimer0Ovf)
			}
			if s.profile != nil {
				s.App.SetRawGyro(s.profile.Sample(now))
			}
		}

		if s.App.Running() {
			if fault := s.App.RunCycles(CyclesFor(step)); fault != nil {
				if s.lastFault == nil || fault.Cycle != s.lastFault.Cycle {
					s.logEvent(EventFault, "%v", fault)
				}
				s.lastFault = fault
			}
		}

		if s.Master != nil {
			rep, err := s.Master.Poll(now)
			if err != nil {
				return err
			}
			if rep != nil {
				s.logEvent(EventFailureDetected, "watchdog/boot-handshake anomaly")
				s.reflashes = append(s.reflashes, *rep)
				// Board is down while reprogramming.
				now = s.advanceClock(rep.Total)
				s.logEvent(EventReflash, "%d bytes reprogrammed in %v", rep.ImageBytes, rep.Total.Round(time.Millisecond))
			}
		}
	}
	return nil
}
