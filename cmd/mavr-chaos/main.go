// mavr-chaos soaks the live fleet under the deterministic chaos
// engine (internal/chaos) and verifies it survives: board panics are
// restarted by the supervisor, partitions and datagram corruption stay
// classified as link trouble, sessions churn without leaking, and
// shutdown drains every goroutine. One process run covers several
// seeds; each seed is an independent fleet brought up, battered and
// torn down with leak accounting around it.
//
// Usage:
//
//	mavr-chaos [-seeds 1,2,3] [-vehicles 4] [-stations 2] [-duration 5s]
//	           [-panic 0.003] [-hang 0.002] [-stall 0.002]
//	           [-partition-down 0.08] [-partition-up 0.03] [-window 64]
//	           [-corrupt 0.03] [-churn 0.1] [-drop 0]
//	           [-budget 64] [-protect] [-rate 0] [-step 10ms]
//	           [-attack] [-silence 300ms] [-v]
//	mavr-chaos -schedule 500 [-seeds 1,2,3] [-vehicles 4]
//
// -schedule prints the pure fault schedule (board events + link
// digest) for each seed instead of running a soak: the output is a
// deterministic function of (seed, vehicles, ticks), so CI runs it
// twice and byte-compares.
//
// -attack injects a stale V2 payload at vehicle 1 mid-soak (forcing
// -protect) and requires the ground station to detect the resulting
// crash through whatever loss and chaos the link is running — the
// paper's detection story must survive an impaired link.
//
// Exit status: 0 if every seed's soak passed all checks, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mavr/internal/chaos"
	"mavr/internal/firmware"
	"mavr/internal/gcs"
	"mavr/internal/netlink"
	"mavr/internal/scenario"
)

type options struct {
	seeds    []int64
	vehicles int
	stations int
	duration time.Duration
	budget   int
	protect  bool
	rate     float64
	step     time.Duration
	attack   bool
	silence  time.Duration
	verbose  bool

	chaos chaos.Config // Seed filled per soak
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mavr-chaos:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	seeds := flag.String("seeds", "1,2,3", "comma-separated chaos seeds; each runs an independent soak")
	flag.IntVar(&o.vehicles, "vehicles", 4, "vehicles per fleet")
	flag.IntVar(&o.stations, "stations", 2, "churning ground stations (all watching vehicle 1 — duplicate-sysid joins)")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "wall-clock soak length per seed (extended, up to 4x, until every vehicle in service has been heard)")
	flag.Float64Var(&o.chaos.PanicRate, "panic", 0.003, "per-tick board driver panic probability")
	flag.Float64Var(&o.chaos.HangRate, "hang", 0.002, "per-tick board hang probability")
	flag.Float64Var(&o.chaos.StallRate, "stall", 0.002, "per-tick sim-clock stall probability")
	flag.Float64Var(&o.chaos.PartitionDownRate, "partition-down", 0.08, "per-window downlink partition probability")
	flag.Float64Var(&o.chaos.PartitionUpRate, "partition-up", 0.03, "per-window uplink partition probability")
	flag.IntVar(&o.chaos.PartitionWindow, "window", 64, "partition window length in datagram sequence numbers")
	flag.Float64Var(&o.chaos.CorruptRate, "corrupt", 0.03, "per-datagram corruption probability")
	flag.Float64Var(&o.chaos.ChurnRate, "churn", 0.1, "per-interval station churn probability")
	flag.Float64Var(&o.chaos.DropRate, "drop", 0, "datagram drop probability (both directions)")
	flag.IntVar(&o.budget, "budget", 64, "supervised restart budget per vehicle")
	flag.BoolVar(&o.protect, "protect", false, "boot MAVR-protected boards")
	flag.Float64Var(&o.rate, "rate", 0, "simulated seconds per wall second (0: free-run)")
	flag.DurationVar(&o.step, "step", 10*time.Millisecond, "simulated time per vehicle tick")
	flag.BoolVar(&o.attack, "attack", false, "inject a stale V2 mid-soak and require detection (forces -protect)")
	flag.DurationVar(&o.silence, "silence", 300*time.Millisecond, "vehicle-silence detection threshold (sim time)")
	flag.BoolVar(&o.verbose, "v", false, "per-event progress output")
	schedule := flag.Uint64("schedule", 0, "print the pure fault schedule for this many ticks instead of soaking")
	flag.Parse()

	for _, s := range strings.Split(*seeds, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("bad -seeds entry %q: %w", s, err)
		}
		o.seeds = append(o.seeds, n)
	}
	if len(o.seeds) == 0 {
		return fmt.Errorf("no seeds")
	}
	if o.attack {
		o.protect = true
	}

	if *schedule > 0 {
		for _, seed := range o.seeds {
			cfg := o.chaos
			cfg.Seed = seed
			fmt.Print(cfg.ScheduleTrace(o.vehicles, *schedule))
		}
		return nil
	}

	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return err
	}

	failed := 0
	for _, seed := range o.seeds {
		if err := soak(o, seed, img); err != nil {
			failed++
			fmt.Printf("chaos: seed=%d FAIL: %v\n", seed, err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d seeds failed", failed, len(o.seeds))
	}
	fmt.Printf("chaos: all %d seed(s) survived\n", len(o.seeds))
	return nil
}

// soak runs one fleet under one seed and checks every survival
// property: telemetry through crashes, link faults never escalating to
// a compromise verdict, a real attack (when asked) still detected, and
// a clean drain with zero leaked goroutines or sessions.
func soak(o options, seed int64, img *firmware.Image) error {
	baseline := runtime.NumGoroutine()

	cfg := o.chaos
	cfg.Seed = seed
	f, err := netlink.NewFleet(netlink.FleetConfig{
		Vehicles:      o.vehicles,
		Firmware:      img,
		Protected:     o.protect,
		MasterSeed:    seed,
		Step:          o.step,
		Rate:          o.rate,
		Chaos:         cfg,
		RestartBudget: o.budget,
	})
	if err != nil {
		return err
	}
	if err := f.Start(); err != nil {
		return err
	}
	defer f.Close()

	// One steady observer per vehicle.
	observers := make([]*netlink.Client, o.vehicles)
	for i := range observers {
		c, err := netlink.DialClient(f.Addr().String(), netlink.ClientConfig{SysID: byte(i + 1)})
		if err != nil {
			return err
		}
		defer c.Close()
		observers[i] = c
	}

	// Churning stations all watch vehicle 1: duplicate-sysid joins plus
	// continuous session setup/teardown pressure, scheduled by the same
	// pure engine as everything else.
	churners := make([]*netlink.Client, o.stations)
	defer func() {
		for _, c := range churners {
			if c != nil {
				c.Close()
			}
		}
	}()
	var churnCycles int

	var atk *attacker
	if o.attack {
		atk, err = newAttacker()
		if err != nil {
			return err
		}
	}

	// Past -duration the soak keeps flying until every vehicle in
	// service has been heard: a vehicle whose first downlink window is
	// partitioned is silent for a whole window of sequence numbers,
	// which a slow host may not fly past in time. The wait is capped.
	start := time.Now()
	end, capEnd := start.Add(o.duration), start.Add(settleCap*o.duration)
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	var tick uint64
	for now := range ticker.C {
		if now.After(end) && (now.After(capEnd) || allHeard(f, observers)) {
			break
		}
		tick++
		for s := range churners {
			if !cfg.Churn(uint64(s), tick) {
				continue
			}
			churnCycles++
			if churners[s] != nil {
				churners[s].Close()
				churners[s] = nil
				continue
			}
			c, err := netlink.DialClient(f.Addr().String(), netlink.ClientConfig{SysID: 1})
			if err != nil {
				return fmt.Errorf("churn redial: %w", err)
			}
			churners[s] = c
		}
		if atk != nil && !atk.sent && f.Vehicle(1).Snapshot().SimTime > 200*time.Millisecond {
			atk.inject(observers[0])
			if o.verbose {
				fmt.Printf("chaos: seed=%d injected stale V2 at vehicle 1\n", seed)
			}
		}
		if atk != nil && atk.sent && !atk.detected {
			// Uplink loss or a partition may have eaten the datagram:
			// keep resending until the ground station sees the crash.
			mon := observers[0].Monitor()
			if mon.VehicleSilent(o.silence) {
				atk.detected = true
				if o.verbose {
					fmt.Printf("chaos: seed=%d detection confirmed\n", seed)
				}
			} else if time.Since(atk.lastSend) > 500*time.Millisecond {
				atk.inject(observers[0])
			}
		}
	}

	// Survival checks while everything is still running.
	var restarts, degraded int
	var minSim time.Duration
	for i, v := range f.Vehicles() {
		s := v.Snapshot()
		restarts += s.Restarts
		if s.Degraded {
			degraded++
		}
		if i == 0 || s.SimTime < minSim {
			minSim = s.SimTime
		}
	}
	var errs []string
	if degraded > 0 {
		errs = append(errs, fmt.Sprintf("%d vehicle(s) exhausted the restart budget", degraded))
	}
	for i, c := range observers {
		mon := c.Monitor()
		if mon.Pulses == 0 {
			errs = append(errs, fmt.Sprintf("vehicle %d: no telemetry at all", i+1))
		}
		if mon.Garbage > 0 || mon.HeartbeatErrors > 0 {
			errs = append(errs, fmt.Sprintf("vehicle %d: corruption leaked past the checksum (garbage=%d hbErr=%d)",
				i+1, mon.Garbage, mon.HeartbeatErrors))
		}
		// Pure link/board-restart faults must never read as compromise.
		// A real injected attack is the one allowed (and required) hit.
		if h := c.Health(o.silence); h == gcs.HealthCompromised && (atk == nil || i != 0) {
			errs = append(errs, fmt.Sprintf("vehicle %d: chaos misread as compromise", i+1))
		}
	}
	if atk != nil && !atk.detected {
		errs = append(errs, "injected V2 went undetected through the impaired link")
	}

	for _, c := range observers {
		c.Close()
	}
	for s, c := range churners {
		if c != nil {
			c.Close()
			churners[s] = nil
		}
	}
	if err := f.Close(); err != nil {
		errs = append(errs, fmt.Sprintf("drain: %v", err))
	}
	if n := f.Sessions(); n != 0 {
		errs = append(errs, fmt.Sprintf("%d session(s) survived Close", n))
	}
	leakEnd := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(leakEnd) {
			errs = append(errs, fmt.Sprintf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline))
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	detected := ""
	if atk != nil {
		detected = " attack-detected"
	}
	fmt.Printf("chaos: seed=%d ok sim=%v restarts=%d churns=%d sessions-expired=%d%s\n",
		seed, minSim.Round(time.Millisecond), restarts, churnCycles, f.ExpiredSessions(), detected)
	return nil
}

// settleCap bounds how long a soak may run past -duration waiting for
// telemetry from every vehicle in service, as a multiple of -duration.
const settleCap = 4

// allHeard reports whether every vehicle that has not exhausted its
// restart budget has delivered telemetry to its observer.
func allHeard(f *netlink.Fleet, observers []*netlink.Client) bool {
	for i, v := range f.Vehicles() {
		if !v.Degraded() && observers[i].Monitor().Pulses == 0 {
			return false
		}
	}
	return true
}

// attacker holds the pre-built stale V2 packet (analyzed from the
// public unrandomized image — the paper's threat model) and its
// delivery state.
type attacker struct {
	pkt      scenario.Packet
	sent     bool
	detected bool
	lastSend time.Time
}

// newAttacker takes the packet from scenario.Packets, the expansion
// every attack driver sends: V2 writing 0x5A to the gyro byte of the
// stock test application, the image the soak's fleet flies.
func newAttacker() (*attacker, error) {
	pkts, err := scenario.Packets(scenario.Spec{
		Injections: []scenario.Injection{{Kind: scenario.InjectV2, Value: 0x5A}},
	})
	if err != nil {
		return nil, err
	}
	return &attacker{pkt: pkts[0]}, nil
}

func (a *attacker) inject(c *netlink.Client) {
	c.SendFrame(a.pkt.Frame())
	a.sent = true
	a.lastSend = time.Now()
}
