// mavr-fleetd hosts a fleet of simulated UAVs behind one UDP socket.
//
// Each vehicle is an independent board.System flying the vulnerable
// test application (optionally under MAVR protection), advanced in
// simulated time by its own goroutine and paced against the wall
// clock. Ground stations — including mavr-attack -connect — speak the
// internal/netlink datagram protocol: hello to subscribe to a
// vehicle's telemetry, data datagrams both ways, bye to leave.
//
// Usage:
//
//	mavr-fleetd [-n 8] [-addr 127.0.0.1:14550] [-metrics 127.0.0.1:9090]
//	            [-protect] [-armory http://127.0.0.1:8737] [-armory-key <hex>]
//	            [-seed 1] [-rate 1.0]
//	            [-drop 0.0] [-dup 0.0] [-latency 0] [-jitter 0]
//	            [-chaos-seed 0] [-chaos-panic 0] [-chaos-hang 0] [-chaos-stall 0]
//	            [-chaos-partition-down 0] [-chaos-partition-up 0] [-chaos-corrupt 0]
//	            [-restart-budget 8] [-session-timeout 5s] [-duration 0]
//
// The link impairments (-drop, -dup, -latency, -jitter) and the
// -chaos-* faults are one deterministic schedule (internal/chaos),
// keyed by -chaos-seed: the same seed replays the same impairments.
// Scheduled driver panics are recovered by the supervisor within
// -restart-budget consecutive restarts per vehicle, after which the
// vehicle is parked as degraded (visible in -metrics and the status
// line).
//
// With -armory, protected masters provision their randomized images
// from a mavr-armory daemon at the given base URL: each boot and each
// re-randomization-on-detection POSTs the fleet's base firmware with
// the vehicle's identity and flashes the signed, pre-verified artifact
// that comes back. An unreachable or rejecting armory degrades
// gracefully to on-board randomization (the fleet.armory_fallbacks
// metric counts how often).
//
// The -metrics endpoint serves the fleet's counters as plain text
// ("name value" per line) over HTTP at /metrics (any path works).
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mavr/internal/armory"
	"mavr/internal/board"
	"mavr/internal/chaos"
	"mavr/internal/firmware"
	"mavr/internal/netlink"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	n := flag.Int("n", 8, "number of simulated vehicles (system ids 1..n)")
	addr := flag.String("addr", "127.0.0.1:14550", "UDP listen address for telemetry")
	metricsAddr := flag.String("metrics", "", "serve plain-text metrics over HTTP on this address (empty: disabled)")
	protect := flag.Bool("protect", false, "boot MAVR-protected boards instead of unprotected APMs")
	armoryURL := flag.String("armory", "", "provision randomized images from the mavr-armory daemon at this base URL (requires -protect)")
	armoryKey := flag.String("armory-key", "", "armory artifact signing key (hex; empty: built-in dev key)")
	seed := flag.Int64("seed", 1, "master randomization seed base (vehicle i adds i)")
	rate := flag.Float64("rate", 1.0, "simulated seconds per wall second (0: free-run)")
	var ch chaos.Config
	flag.Float64Var(&ch.DropRate, "drop", 0, "link: datagram drop probability")
	flag.Float64Var(&ch.DupRate, "dup", 0, "link: downlink datagram duplication probability")
	flag.DurationVar(&ch.Latency, "latency", 0, "link: base one-way downlink latency")
	flag.DurationVar(&ch.Jitter, "jitter", 0, "link: additional uniform random downlink delay")
	flag.Int64Var(&ch.Seed, "chaos-seed", 0, "fault schedule seed for the link impairments and chaos faults (same seed: same faults)")
	flag.Float64Var(&ch.PanicRate, "chaos-panic", 0, "chaos: per-tick board driver panic probability")
	flag.Float64Var(&ch.HangRate, "chaos-hang", 0, "chaos: per-tick board hang probability")
	flag.Float64Var(&ch.StallRate, "chaos-stall", 0, "chaos: per-tick sim-clock stall probability")
	flag.Float64Var(&ch.PartitionDownRate, "chaos-partition-down", 0, "chaos: per-window downlink partition probability")
	flag.Float64Var(&ch.PartitionUpRate, "chaos-partition-up", 0, "chaos: per-window uplink partition probability")
	flag.Float64Var(&ch.CorruptRate, "chaos-corrupt", 0, "chaos: per-datagram corruption probability")
	restartBudget := flag.Int("restart-budget", 8, "supervised restarts per vehicle before it is parked as degraded (negative: no supervision)")
	sessionTimeout := flag.Duration("session-timeout", 5*time.Second, "expire sessions with no uplink traffic after this long")
	duration := flag.Duration("duration", 0, "exit after this much wall time (0: run until signalled)")
	status := flag.Duration("status", 5*time.Second, "status line interval (0: quiet)")
	flag.Parse()

	var provision func(sysID byte, epoch int) (*board.Provisioned, error)
	var fleetImg *firmware.Image
	if *armoryURL != "" {
		if !*protect {
			return fmt.Errorf("-armory requires -protect (unprotected boards never randomize)")
		}
		secret := armory.DefaultSecret
		if *armoryKey != "" {
			key, err := hex.DecodeString(*armoryKey)
			if err != nil {
				return fmt.Errorf("bad -armory-key: %w", err)
			}
			secret = key
		}
		img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
		if err != nil {
			return err
		}
		elf, err := img.ELF.Marshal()
		if err != nil {
			return err
		}
		fleetImg = img
		client := armory.NewClient(*armoryURL, secret)
		provision = func(sysID byte, epoch int) (*board.Provisioned, error) {
			art, err := client.Randomize(elf, fmt.Sprintf("uav-%d", sysID), uint64(epoch))
			if err != nil {
				return nil, err
			}
			return &board.Provisioned{Image: art.Image, Perm: art.Perm}, nil
		}
	}

	fleet, err := netlink.NewFleet(netlink.FleetConfig{
		Vehicles:       *n,
		Addr:           *addr,
		Firmware:       fleetImg,
		Protected:      *protect,
		MasterSeed:     *seed,
		Provision:      provision,
		Rate:           *rate,
		Chaos:          ch,
		RestartBudget:  *restartBudget,
		SessionTimeout: *sessionTimeout,
	})
	if err != nil {
		return err
	}
	if err := fleet.Start(); err != nil {
		return err
	}
	defer fleet.Close()
	fmt.Printf("fleetd: %d vehicle(s) on %s (rate=%g, protect=%v)\n",
		*n, fleet.Addr(), *rate, *protect)

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, fleet.MetricsText())
		})}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("fleetd: metrics on http://%s/metrics\n", ln.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	var timeout <-chan time.Time
	if *duration > 0 {
		timeout = time.After(*duration)
	}
	var ticker *time.Ticker
	var tick <-chan time.Time
	if *status > 0 {
		ticker = time.NewTicker(*status)
		defer ticker.Stop()
		tick = ticker.C
	}

	for {
		select {
		case s := <-sigs:
			fmt.Printf("fleetd: %v, shutting down\n", s)
			return fleet.Close()
		case <-timeout:
			fmt.Println("fleetd: duration elapsed, shutting down")
			return fleet.Close()
		case <-tick:
			printStatus(fleet)
		}
	}
}

func printStatus(f *netlink.Fleet) {
	st := f.Stats()
	var minSim, maxSim time.Duration
	alive := 0
	for i, v := range f.Vehicles() {
		s := v.Snapshot()
		if s.Running {
			alive++
		}
		if i == 0 || s.SimTime < minSim {
			minSim = s.SimTime
		}
		if s.SimTime > maxSim {
			maxSim = s.SimTime
		}
	}
	fmt.Printf("fleetd: sim=[%v..%v] alive=%d/%d restarts=%d degraded=%d sessions=%d expired=%d\n",
		minSim.Round(time.Millisecond), maxSim.Round(time.Millisecond),
		alive, st.Vehicles, st.Restarts, st.Degraded, st.Sessions, st.SessionsExpired)
}
