// mavr-sim flies a complete simulated mission and prints a ground
// station timeline: telemetry rates, gyro/heading state, heartbeat
// health, and — optionally — a mid-flight stealthy attack, on either an
// unprotected APM or a MAVR-protected board.
//
// The attack packet comes from scenario.Packets, the expansion
// scenario.Run sends. The timeline itself flies on
// gcs.GroundStation.Fly rather than as a scenario: it prints the gyro
// and heading readings every 250ms, which a trace's checkpoints do not
// carry.
//
// Usage:
//
//	mavr-sim [-duration 3s] [-protect] [-attack v1|v2|nav] [-at 1s]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mavr/internal/board"
	"mavr/internal/firmware"
	"mavr/internal/gcs"
	"mavr/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	duration := flag.Duration("duration", 3*time.Second, "mission length (simulated)")
	protect := flag.Bool("protect", false, "fly a MAVR-protected board")
	attackKind := flag.String("attack", "", "inject an attack: v1, v2 or nav")
	attackAt := flag.Duration("at", time.Second, "attack injection time")
	flag.Parse()

	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return err
	}

	var pkts []scenario.Packet
	if *attackKind != "" {
		attacks := map[string]scenario.Injection{
			"v1":  {Kind: scenario.InjectV1, Value: 0x7F},
			"v2":  {Kind: scenario.InjectV2, Value: 0x7F},
			"nav": {Kind: scenario.InjectV2, Addr: img.Layout.WaypointsAddr, Value: 0xEE},
		}
		inj, ok := attacks[*attackKind]
		if !ok {
			return fmt.Errorf("unknown attack %q", *attackKind)
		}
		inj.At = *attackAt
		if pkts, err = scenario.Packets(scenario.Spec{Injections: []scenario.Injection{inj}}); err != nil {
			return err
		}
	}

	cfg := board.SystemConfig{Unprotected: true}
	if *protect {
		cfg = board.SystemConfig{Master: board.MasterConfig{Seed: 11, WatchdogTimeout: 20 * time.Millisecond}}
	}
	sys := board.NewSystem(cfg)
	if err := sys.FlashFirmware(img); err != nil {
		return err
	}
	rep, err := sys.Boot()
	if err != nil {
		return err
	}
	if rep.Randomized {
		fmt.Printf("boot: MAVR randomized %d bytes in %v\n", rep.ImageBytes, rep.Total.Round(time.Millisecond))
	} else {
		fmt.Println("boot: unprotected APM")
	}

	sys.AttachFlightProfile(board.DefaultFlightProfile())
	g := gcs.NewGroundStation(sys)
	fmt.Println("  t      pulses  gyro(truth)  hdg  heartbeats  status  anomalies")
	for elapsed := time.Duration(0); elapsed < *duration; elapsed += 250 * time.Millisecond {
		for len(pkts) > 0 && elapsed >= pkts[0].At {
			g.SendFrame(pkts[0].Frame())
			fmt.Printf("%6s  >>> attack packet injected (%s, %d bytes)\n",
				elapsed.Round(time.Millisecond), *attackKind, len(pkts[0].Payload))
			pkts = pkts[1:]
		}
		if err := g.Fly(250 * time.Millisecond); err != nil {
			return err
		}
		anom := "-"
		if g.Mon.CompromiseDetected(200 * time.Millisecond) {
			anom = fmt.Sprintf("DETECTED (garbage=%d gaps=%d hbErr=%d silence=%v)",
				g.Mon.Garbage, g.Mon.SeqGaps, g.Mon.HeartbeatErrors, g.Mon.MaxSilence.Round(time.Millisecond))
		}
		fmt.Printf("%6s  %6d  %4d (%3d)   %3d  %10d  %6d  %s\n",
			sys.Now().Round(time.Millisecond), g.Mon.Pulses, g.Mon.LastGyro, sys.TruthGyro(),
			g.Mon.LastHeading, g.Mon.Heartbeats, g.Mon.LastStatus, anom)
	}

	fmt.Printf("\nfinal vehicle state: gyro-config=0x%02X fault=%v\n",
		sys.App.CPU.Data[firmware.AddrGyroCfg], sys.LastFault())
	if *protect {
		st := sys.Master.Stats()
		fmt.Printf("master: boots=%d randomizations=%d failures-detected=%d endurance=%d/%d\n",
			st.Boots, st.Randomizations, st.FailuresDetected, st.ProgramCycles, board.FlashEndurance)
	}
	if evs := sys.Events(); len(evs) > 0 {
		fmt.Println("\nboard event log:")
		for _, e := range evs {
			fmt.Printf("  %s\n", e)
		}
	}
	return nil
}
