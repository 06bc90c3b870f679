// Ablations: the design alternatives the paper discusses and rejects,
// each demonstrated on the simulation — the software-only deployment
// (§VIII-A), the fixed-location serial bootloader versus hardware ISP
// (§VI-B4), random inter-function padding (§VIII-B), stack canaries
// (§IX) and the randomization-frequency/flash-endurance tradeoff (§V-C).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"mavr/internal/attack"
	"mavr/internal/avr"
	"mavr/internal/board"
	"mavr/internal/core"
	"mavr/internal/firmware"
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

	// --- §VI-B4: bootloader gadgets survive randomization. ---
	fmt.Println("§VI-B4 — fixed serial bootloader vs hardware ISP")
	boot := *a
	if err := boot.UseFixedGadgets(img.Bootloader, firmware.BootloaderStart); err != nil {
		return err
	}
	payload, err := attack.BuildV1(&boot, attack.GyroCfgWrite(0x6A))
	if err != nil {
		return err
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	landed := 0
	const trials = 5
	for i := 0; i < trials; i++ {
		r, err := core.Randomize(pre, core.Permutation(rng, len(pre.Blocks)))
		if err != nil {
			return err
		}
		full := img.FullFlash()
		copy(full, r.Image)
		copy(full[firmware.BootloaderStart:], img.Bootloader)
		sim, err := attack.NewSim(full)
		if err != nil {
			return err
		}
		_ = sim.Deliver(attack.Frame(payload), 300_000)
		if sim.CPU.Data[firmware.AddrGyroCfg] == 0x6A {
			landed++
		}
	}
	fmt.Printf("  bootloader-gadget write landed on %d/%d randomized layouts\n", landed, trials)
	ispSpec := firmware.TestApp()
	ispSpec.Bootloader = false
	ispImg, err := firmware.Generate(ispSpec, firmware.ModeMAVR)
	if err != nil {
		return err
	}
	ispA, err := attack.Analyze(ispImg.ELF)
	if err != nil {
		return err
	}
	if err := ispA.UseFixedGadgets(nil, firmware.BootloaderStart); err != nil {
		fmt.Printf("  hardware-ISP build: %v (no fixed gadgets exist)\n\n", err)
	}

	// --- §VIII-A: software-only deployment. ---
	fmt.Println("§VIII-A — software-only (flash-time) randomization")
	dump := func(seed int64) []byte {
		sys := board.NewSystem(board.SystemConfig{SoftwareOnly: true, SoftwareSeed: seed})
		if err := sys.FlashFirmware(img); err != nil {
			log.Fatal(err)
		}
		if _, err := sys.Boot(); err != nil {
			log.Fatal(err)
		}
		d, _ := sys.App.ReadFlashExternally()
		return d
	}
	x, y := dump(3), dump(3)
	same := true
	for i := range x {
		if x[i] != y[i] {
			same = false
			break
		}
	}
	fmt.Printf("  layout identical across reflashes: %v (failed attempts leak durable information)\n", same)
	fmt.Printf("  no readout fuse: debugger dump succeeded (%d bytes)\n", len(x))
	fixed := core.SimulateBruteForceFixed(1, 4, 2000, 0)
	rer := core.SimulateBruteForceRerandomized(1, 4, 2000, 0)
	fmt.Printf("  brute force at n=4: fixed layout %.1f attempts vs MAVR %.1f\n\n",
		fixed.MeanAttempts, rer.MeanAttempts)

	// --- §VIII-B: padding entropy. ---
	fmt.Println("§VIII-B — random inter-function padding")
	perm := core.EntropyBits(800)
	pad := core.PaddingEntropyBits(800, (262144-177556)/2)
	fmt.Printf("  permutation alone: %.0f bits; padding could add %.0f more — unnecessary\n\n", perm, pad)

	// --- §IX: stack canary runtime cost. ---
	fmt.Println("§IX — stack canaries (runtime checks MAVR avoids)")
	cycles := func(canary bool) uint64 {
		spec := firmware.TestApp()
		spec.StackCanaries = canary
		ci, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			log.Fatal(err)
		}
		var handler uint32
		for _, s := range ci.ELF.FuncSymbols() {
			if s.Name == "handle_param_set" {
				handler = s.Value / 2
			}
		}
		sim, err := attack.NewSim(ci.Flash)
		if err != nil {
			log.Fatal(err)
		}
		sim.SendFrame(attack.Frame(make([]byte, 23)))
		ok, _ := sim.CPU.RunUntil(5_000_000, func(c *avr.CPU) bool { return c.PC == handler })
		if !ok {
			log.Fatal("handler never reached")
		}
		start := sim.CPU.Cycles
		sp := sim.CPU.SP()
		if ok, _ = sim.CPU.RunUntil(100_000, func(c *avr.CPU) bool { return c.SP() > sp }); !ok {
			log.Fatal("handler never returned")
		}
		return sim.CPU.Cycles - start
	}
	plain, withCanary := cycles(false), cycles(true)
	fmt.Printf("  handler cost: %d cycles plain, %d with canary (+%d per packet, on a 96%%-utilized CPU)\n",
		plain, withCanary, withCanary-plain)
	fmt.Printf("  and a canary detection cannot recover in flight — MAVR's reflash can\n\n")

	// --- §V-C: randomization frequency vs flash endurance. ---
	fmt.Println("§V-C — randomization frequency vs 10,000-cycle flash endurance")
	for _, every := range []int{1, 5, 20} {
		sys := board.NewSystem(board.SystemConfig{Master: board.MasterConfig{RandomizeEvery: every, Seed: int64(every)}})
		if err := sys.FlashFirmware(img); err != nil {
			return err
		}
		const boots = 40
		for j := 0; j < boots; j++ {
			if _, err := sys.Boot(); err != nil {
				return err
			}
		}
		used := sys.Master.Stats().ProgramCycles
		fmt.Printf("  randomize every %2d boots: %2d program cycles per %d boots -> ~%d-boot lifetime\n",
			every, used, boots, board.FlashEndurance*boots/used)
	}

	// --- §VII-B1: production programming path. ---
	ap, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		return err
	}
	sys := board.NewSystem(board.SystemConfig{Master: board.MasterConfig{Seed: 1, ProgramBaud: board.ProductionProgramBaud}})
	if err := sys.FlashFirmware(ap); err != nil {
		return err
	}
	rep, err := sys.Boot()
	if err != nil {
		return err
	}
	fmt.Printf("\n§VII-B1 — production PCB estimate: ArduPlane reprograms in %v (paper estimates ~4s)\n",
		rep.Total.Round(time.Millisecond))
	return nil
}
