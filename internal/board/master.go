package board

import (
	"fmt"
	"math/rand"
	"time"

	"mavr/internal/core"
	"mavr/internal/staticverify"
)

// Programming-path timing (paper §VII-B1): the prototype's master
// programs the application processor over a 115200-baud serial
// bootloader — about 11.5 bytes per millisecond, the startup-overhead
// bottleneck. Reading from the SPI flash and patching are streamed and
// overlap the serial transfer.
const (
	// DefaultProgramBaud is the prototype's bootloader baud rate.
	DefaultProgramBaud = 115200
	// ProductionProgramBaud approximates the paper's production
	// estimate, where impedance-controlled traces allow mega-baud rates
	// and internal flash write speed (~4 s for ArduPlane) dominates.
	ProductionProgramBaud = 553600
	// FlashEndurance is the ATmega2560 program-memory endurance
	// (10,000 cycles), the reason §V-C randomizes on a schedule rather
	// than every boot.
	FlashEndurance = 10000
)

// DefaultWatchdogTimeout is the master's watchdog timeout when
// MasterConfig leaves it zero.
const DefaultWatchdogTimeout = 50 * time.Millisecond

// MasterConfig tunes the master processor's policy.
type MasterConfig struct {
	// ProgramBaud is the master->application programming rate.
	ProgramBaud int
	// RandomizeEvery reprograms with a fresh permutation every Nth boot
	// (1 = every boot). Failed-attack detection always re-randomizes.
	RandomizeEvery int
	// WatchdogTimeout is how long the master waits for a feed pulse
	// before declaring a failed attack (§V-A2 timing analysis); zero
	// means DefaultWatchdogTimeout.
	WatchdogTimeout time.Duration
	// Seed drives the master's permutation source.
	Seed int64
	// SkipVerify disables the static patch-completeness check the
	// master runs before flashing a freshly randomized image (§VI-B: a
	// single missed patch bricks the board or leaves a stable gadget).
	SkipVerify bool
	// Provision, when set, fetches a pre-randomized, pre-verified and
	// signed image from the fleet armory instead of randomizing
	// in-process. It is called with the vehicle's re-randomization
	// epoch (the count of randomizations so far, so every call is a
	// distinct armory holder). A nil result or error degrades
	// gracefully to the in-process randomization path, counted in
	// MasterStats.ArmoryFallbacks.
	Provision func(epoch int) (*Provisioned, error)
}

// Provisioned is an externally randomized image as handed back by the
// armory: the patched flash image and the permutation it applied. The
// armory statically verified the image and the client checked its
// digest and signature, so the master flashes it without re-verifying.
type Provisioned struct {
	Image []byte
	Perm  []int
}

func (c MasterConfig) withDefaults() MasterConfig {
	if c.ProgramBaud == 0 {
		c.ProgramBaud = DefaultProgramBaud
	}
	if c.RandomizeEvery == 0 {
		c.RandomizeEvery = 1
	}
	if c.WatchdogTimeout == 0 {
		c.WatchdogTimeout = DefaultWatchdogTimeout
	}
	return c
}

// StartupReport is one boot's programming cost (Table II).
type StartupReport struct {
	// Randomized says whether this boot reprogrammed the processor.
	Randomized bool
	// ImageBytes transferred.
	ImageBytes int
	// TransferTime is the serial programming time (the bottleneck).
	TransferTime time.Duration
	// Total startup overhead attributable to MAVR.
	Total time.Duration
}

// MasterStats aggregates the master's lifetime counters.
type MasterStats struct {
	Boots            int
	Randomizations   int
	FailuresDetected int
	ProgramCycles    int // flash endurance consumption
	// VerifyRejections counts images the pre-flash static verifier
	// refused to program.
	VerifyRejections int
	// ArmoryProvisioned counts randomizations satisfied by the armory
	// Provision hook; ArmoryFallbacks counts hook failures that fell
	// back to in-process randomization.
	ArmoryProvisioned int
	ArmoryFallbacks   int
}

// Master is the ATmega1284P that owns the external flash, randomizes
// the binary and programs the application processor.
type Master struct {
	cfg   MasterConfig
	rng   *rand.Rand
	flash *ExternalFlash
	app   *AppProcessor

	lastFeed       time.Duration
	stats          MasterStats
	currentPerm    []int
	now            func() time.Duration
	expectBoot     bool
	unexpectedBoot bool

	// tamper, when set, mutates the randomization outcome before
	// verification — test instrumentation modeling a defective or
	// compromised rewriter.
	tamper func(*core.Preprocessed, *core.Randomized)
	// onRandomize, when set, observes every in-process randomization
	// outcome that passed verification, just before it is flashed (see
	// Instrument).
	onRandomize func(*core.Preprocessed, *core.Randomized)
}

// NewMaster wires a master processor to its flash chip and application
// processor. The now function supplies the simulated clock.
func NewMaster(cfg MasterConfig, flash *ExternalFlash, app *AppProcessor, now func() time.Duration) *Master {
	c := cfg.withDefaults()
	m := &Master{
		cfg:   c,
		rng:   rand.New(rand.NewSource(c.Seed)),
		flash: flash,
		app:   app,
		now:   now,
	}
	app.onFeed = func() { m.lastFeed = m.now() }
	app.onBoot = func() {
		if m.expectBoot {
			m.expectBoot = false
			m.lastFeed = m.now()
			return
		}
		// The application restarted without the master commanding it: a
		// failed attack crashed the board into the reset vector.
		m.unexpectedBoot = true
	}
	return m
}

// Stats returns the master's counters.
func (m *Master) Stats() MasterStats { return m.stats }

// CurrentPerm exposes the active permutation (test instrumentation —
// physically unobservable thanks to the readout fuse).
func (m *Master) CurrentPerm() []int { return append([]int(nil), m.currentPerm...) }

// Instrument registers an observer for every in-process randomization
// outcome the master accepts, invoked after verification and before
// programming (test instrumentation — the soundness oracle captures
// each epoch's layout here; physically unobservable like CurrentPerm).
func (m *Master) Instrument(f func(*core.Preprocessed, *core.Randomized)) {
	m.onRandomize = f
}

// Boot performs one power-on: depending on the randomization schedule
// it either reprograms the application processor with a freshly
// randomized binary or starts the existing one (§V-C).
func (m *Master) Boot(now time.Duration) (StartupReport, error) {
	m.stats.Boots++
	needRandomize := m.currentPerm == nil ||
		(m.cfg.RandomizeEvery > 0 && (m.stats.Boots-1)%m.cfg.RandomizeEvery == 0)
	if !needRandomize {
		m.expectBoot = true
		m.app.Reset(true)
		m.lastFeed = now
		return StartupReport{}, nil
	}
	return m.randomizeAndProgram(now)
}

// HandleFailure is invoked when the watchdog detects a failed ROP
// attack: reset the board and immediately re-randomize (§V-D).
func (m *Master) HandleFailure(now time.Duration) (StartupReport, error) {
	m.stats.FailuresDetected++
	return m.randomizeAndProgram(now)
}

// Poll runs the master's timing analysis: if the application processor
// has not fed the watchdog within the timeout, a failed attack is
// assumed. It returns the programming report when a reflash occurred.
func (m *Master) Poll(now time.Duration) (*StartupReport, error) {
	if m.currentPerm == nil {
		return nil, nil
	}
	if !m.unexpectedBoot && now-m.lastFeed <= m.cfg.WatchdogTimeout {
		return nil, nil
	}
	m.unexpectedBoot = false
	rep, err := m.HandleFailure(now)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

func (m *Master) randomizeAndProgram(now time.Duration) (StartupReport, error) {
	image, perm, err := m.nextImage()
	if err != nil {
		return StartupReport{}, err
	}
	if err := m.app.Program(image); err != nil {
		return StartupReport{}, err
	}
	m.app.ReadoutFuse = true
	m.expectBoot = true
	m.app.Reset(true)
	m.currentPerm = perm
	m.stats.Randomizations++
	m.stats.ProgramCycles++
	m.lastFeed = now + m.transferTime(len(image)) // feeds start after boot

	rep := StartupReport{
		Randomized:   true,
		ImageBytes:   len(image),
		TransferTime: m.transferTime(len(image)),
	}
	rep.Total = rep.TransferTime
	return rep, nil
}

// nextImage produces the next randomized image to flash: from the
// armory when a Provision hook is configured and reachable, otherwise
// randomized and verified in-process.
func (m *Master) nextImage() ([]byte, []int, error) {
	if m.cfg.Provision != nil {
		if p, err := m.cfg.Provision(m.stats.Randomizations); err == nil && p != nil {
			m.stats.ArmoryProvisioned++
			return p.Image, p.Perm, nil
		}
		// Armory unreachable or rejected the request: the vehicle must
		// still be able to re-randomize on its own (§V-D — detection
		// response cannot depend on ground infrastructure).
		m.stats.ArmoryFallbacks++
	}
	pre, err := m.flash.Load()
	if err != nil {
		return nil, nil, err
	}
	perm := core.Permutation(m.rng, len(pre.Blocks))
	r, err := core.Randomize(pre, perm)
	if err != nil {
		return nil, nil, fmt.Errorf("board: randomize: %w", err)
	}
	if m.tamper != nil {
		m.tamper(pre, r)
	}
	if !m.cfg.SkipVerify {
		rep := staticverify.Verify(pre, r, staticverify.Options{Gadgets: false})
		if !rep.OK() {
			m.stats.VerifyRejections++
			return nil, nil, fmt.Errorf("board: static verification rejected image: %d errors (first: %s)",
				rep.Errors(), rep.Findings[0])
		}
	}
	if m.onRandomize != nil {
		m.onRandomize(pre, r)
	}
	return r.Image, perm, nil
}

// transferTime is the serial programming duration: 10 bits per byte at
// the configured baud rate. Flash reading and patching stream
// concurrently, so the serial link is the critical path (§VII-B1).
func (m *Master) transferTime(bytes int) time.Duration {
	return time.Duration(int64(bytes) * 10 * int64(time.Second) / int64(m.cfg.ProgramBaud))
}
