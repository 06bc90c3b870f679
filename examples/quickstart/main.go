// Quickstart: build a synthetic autopilot, protect it with MAVR, boot
// the board and exchange traffic with the ground station.
package main

import (
	"fmt"
	"log"
	"time"

	"mavr/internal/board"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/gcs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. "Compile" an autopilot application with the MAVR-compatible
	// toolchain flags (-mno-call-prologues --no-relax).
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return err
	}
	fmt.Printf("built %s: %d bytes, %d function symbols\n",
		img.Spec.Name, len(img.Flash), len(img.ELF.FuncSymbols()))

	// 2. Preprocess the ELF on the host: extract function blocks and
	// data-section function pointers, ready for the external flash.
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		return err
	}
	fmt.Printf("preprocessed: %d blocks tiling [0x%X, 0x%X), %d function pointers\n",
		len(pre.Blocks), pre.RegionStart, pre.RegionEnd, len(pre.PtrOffsets))
	fmt.Printf("randomization entropy: %.0f bits (log2(%d!))\n",
		core.EntropyBits(len(pre.Blocks)), len(pre.Blocks))

	// 3. Assemble the MAVR board, flash, and boot. The master processor
	// randomizes the binary and programs the application processor.
	sys := board.NewSystem(board.SystemConfig{Master: board.MasterConfig{Seed: 1}})
	if err := sys.FlashFirmware(img); err != nil {
		return err
	}
	rep, err := sys.Boot()
	if err != nil {
		return err
	}
	fmt.Printf("boot: randomized=%v, programmed %d bytes in %v over the %d-baud bootloader\n",
		rep.Randomized, rep.ImageBytes, rep.Total.Round(time.Millisecond), board.DefaultProgramBaud)

	// 4. Fly for a second of simulated time and set a parameter.
	station := gcs.NewGroundStation(sys)
	station.SetParam("RATE_RLL_P", 1.5)
	if err := station.Fly(time.Second); err != nil {
		return err
	}
	fmt.Printf("flew 1s: %d telemetry pulses, gyro=%d, anomalies: garbage=%d gaps=%d\n",
		station.Mon.Pulses, station.Mon.LastGyro, station.Mon.Garbage, station.Mon.SeqGaps)

	// 5. The randomized binary is physically unreadable.
	if _, err := sys.App.ReadFlashExternally(); err != nil {
		fmt.Printf("debugger readout: %v\n", err)
	}
	return nil
}
