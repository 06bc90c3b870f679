// Defense demo (paper §V, §VII-A): the same stealthy attack that owned
// the unprotected board fails against MAVR; the master processor's
// timing analysis detects the failure and re-randomizes in flight.
package main

import (
	"fmt"
	"log"
	"time"

	"mavr/internal/attack"
	"mavr/internal/board"
	"mavr/internal/firmware"
	"mavr/internal/gcs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return err
	}
	a, err := attack.Analyze(img.ELF)
	if err != nil {
		return err
	}
	payload, err := attack.BuildV2(a, attack.GyroCfgWrite(0x7F))
	if err != nil {
		return err
	}

	// Control: the attack succeeds against the unprotected board.
	open := board.NewSystem(board.SystemConfig{Unprotected: true})
	if err := open.FlashFirmware(img); err != nil {
		return err
	}
	if _, err := open.Boot(); err != nil {
		return err
	}
	og := gcs.NewGroundStation(open)
	if err := og.Fly(100 * time.Millisecond); err != nil {
		return err
	}
	og.SendFrame(attack.Frame(payload))
	if err := og.Fly(400 * time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("unprotected board: gyro-config=0x%02X (attack %s)\n",
		open.App.CPU.Data[firmware.AddrGyroCfg],
		map[bool]string{true: "SUCCEEDED", false: "failed"}[open.App.CPU.Data[firmware.AddrGyroCfg] == 0x7F])

	// MAVR board: same payload, randomized layout.
	sys := board.NewSystem(board.SystemConfig{Master: board.MasterConfig{
		Seed:            7,
		WatchdogTimeout: 20 * time.Millisecond,
	}})
	if err := sys.FlashFirmware(img); err != nil {
		return err
	}
	rep, err := sys.Boot()
	if err != nil {
		return err
	}
	fmt.Printf("\nMAVR board: boot randomized %d blocks, startup overhead %v\n",
		len(sys.Master.CurrentPerm()), rep.Total.Round(time.Millisecond))

	g := gcs.NewGroundStation(sys)
	if err := g.Fly(100 * time.Millisecond); err != nil {
		return err
	}
	g.SendFrame(attack.Frame(payload))
	if err := g.Fly(4 * time.Second); err != nil {
		return err
	}
	st := sys.Master.Stats()
	fmt.Printf("after the stale stealthy attack:\n")
	fmt.Printf("  gyro-config=0x%02X (attack %s)\n",
		sys.App.CPU.Data[firmware.AddrGyroCfg],
		map[bool]string{true: "succeeded", false: "FAILED"}[sys.App.CPU.Data[firmware.AddrGyroCfg] == 0x7F])
	fmt.Printf("  master detected %d failed attack(s), re-randomized %d time(s)\n",
		st.FailuresDetected, st.Randomizations-1)
	before := g.Mon.Pulses
	if err := g.Fly(200 * time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("  vehicle recovered in flight: %d fresh telemetry pulses\n", g.Mon.Pulses-before)
	fmt.Printf("  flash endurance consumed: %d/%d program cycles\n",
		st.ProgramCycles, board.FlashEndurance)
	return nil
}
