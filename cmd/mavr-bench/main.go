// mavr-bench regenerates every table and figure of the paper's
// evaluation from the simulation, printing paper-reported values next
// to measured ones.
//
// Usage:
//
//	mavr-bench [-only table1,table2,table3,fig1,...,effectiveness,entropy,bruteforce,synthesis]
//
// Timing benchmarks live in the packages' _test.go files; see
// benchmarks/baseline.txt for the command that regenerates them.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"mavr/internal/asm"
	"mavr/internal/attack"
	"mavr/internal/avr"
	"mavr/internal/board"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/gadget"
	"mavr/internal/gcs"
	"mavr/internal/mavlink"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

var paperTables = map[string][3]int{
	// name -> arduplane, arducopter, ardurover
	"functions": {917, 1030, 800},
	"startupMs": {19209, 21206, 15412},
	"stockSize": {221608, 244532, 177870},
	"mavrSize":  {221294, 244292, 177556},
}

func run() error {
	only := flag.String("only", "", "comma-separated subset of experiments")
	flag.Parse()

	type step struct {
		name string
		fn   func() error
	}
	steps := []step{
		{"table1", table1},
		{"table2", table2},
		{"table3", table3},
		{"effectiveness", effectiveness},
		{"matrix", matrix},
		{"entropy", entropy},
		{"bruteforce", bruteforce},
		{"synthesis", synthesis},
		{"fig1", fig1},
		{"fig2", fig2},
		{"fig3", fig3},
		{"fig4", fig45},
		{"fig6", fig6},
		{"fig7", fig7},
	}
	valid := make([]string, len(steps))
	for i, s := range steps {
		valid[i] = s.name
	}
	want, err := parseOnly(*only, valid)
	if err != nil {
		return err
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	for _, s := range steps {
		if !sel(s.name) {
			continue
		}
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// parseOnly parses the -only list into the set of selected
// experiments (empty: all), rejecting names not in valid.
func parseOnly(only string, valid []string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, s := range strings.Split(only, ",") {
		if s == "" {
			continue
		}
		if !slices.Contains(valid, s) {
			return nil, fmt.Errorf("-only: unknown experiment %q (valid: %s)", s, strings.Join(valid, ","))
		}
		want[s] = true
	}
	return want, nil
}

func genAll() ([]*firmware.Image, error) {
	var out []*firmware.Image
	for _, spec := range firmware.Profiles() {
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			return nil, err
		}
		out = append(out, img)
	}
	return out, nil
}

func table1() error {
	fmt.Println("TABLE I — NUMBER OF FUNCTIONS")
	fmt.Println("  application   paper   measured")
	imgs, err := genAll()
	if err != nil {
		return err
	}
	var sum int
	for i, img := range imgs {
		n := len(img.ELF.FuncSymbols())
		sum += n
		fmt.Printf("  %-12s  %5d   %8d\n", img.Spec.Name, paperTables["functions"][i], n)
	}
	fmt.Printf("  average %d (paper ~916), median %d (paper 917)\n\n", sum/3, len(imgs[0].ELF.FuncSymbols()))
	return nil
}

func table2() error {
	fmt.Println("TABLE II — MAVR STARTUP OVERHEAD (115200-baud programming path)")
	fmt.Println("  application   paper(ms)   measured(ms)")
	imgs, err := genAll()
	if err != nil {
		return err
	}
	var total int64
	for i, img := range imgs {
		sys := board.NewSystem(board.SystemConfig{Master: board.MasterConfig{Seed: int64(i) + 1}})
		if err := sys.FlashFirmware(img); err != nil {
			return err
		}
		rep, err := sys.Boot()
		if err != nil {
			return err
		}
		ms := rep.Total.Milliseconds()
		total += ms
		fmt.Printf("  %-12s  %9d   %12d\n", img.Spec.Name, paperTables["startupMs"][i], ms)
	}
	fmt.Printf("  average %d ms (paper 18609 ms)\n\n", total/3)
	return nil
}

func table3() error {
	fmt.Println("TABLE III — CHANGE IN CODE SIZE")
	fmt.Println("  application   stock(paper)  stock(meas)  mavr(paper)  mavr(meas)")
	for i, spec := range firmware.Profiles() {
		stock, err := firmware.Generate(spec, firmware.ModeStock)
		if err != nil {
			return err
		}
		mavrImg, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			return err
		}
		fmt.Printf("  %-12s  %12d  %11d  %11d  %10d\n", spec.Name,
			paperTables["stockSize"][i], len(stock.Flash),
			paperTables["mavrSize"][i], len(mavrImg.Flash))
	}
	fmt.Println()
	return nil
}

func effectiveness() error {
	fmt.Println("EFFECTIVENESS (§VII-A)")
	img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		return err
	}
	gs := gadget.Scan(img.Flash, 24)
	fmt.Printf("  gadget census on the test application: %d (paper: 953)\n", len(gs))

	small, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return err
	}
	a, err := attack.Analyze(small.ELF)
	if err != nil {
		return err
	}
	payload, err := attack.BuildV2(a, attack.GyroCfgWrite(0x7F))
	if err != nil {
		return err
	}

	fly := func(g *gcs.GroundStation, d time.Duration) error {
		for e := time.Duration(0); e < d; e += 10 * time.Millisecond {
			if err := g.Step(10 * time.Millisecond); err != nil {
				return err
			}
		}
		return nil
	}

	// Stealthy attack vs the unprotected board.
	open := board.NewSystem(board.SystemConfig{Unprotected: true})
	if err := open.FlashFirmware(small); err != nil {
		return err
	}
	if _, err := open.Boot(); err != nil {
		return err
	}
	og := gcs.NewGroundStation(open)
	if err := fly(og, 100*time.Millisecond); err != nil {
		return err
	}
	og.SendFrame(attack.Frame(payload))
	if err := fly(og, 400*time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("  unprotected board:  attack %s, GCS detected: %v\n",
		okfail(open.App.CPU.Data[firmware.AddrGyroCfg] == 0x7F),
		og.Mon.CompromiseDetected(200*time.Millisecond))

	// Same payload vs the randomized board.
	sys := board.NewSystem(board.SystemConfig{Master: board.MasterConfig{Seed: 5, WatchdogTimeout: 20 * time.Millisecond}})
	if err := sys.FlashFirmware(small); err != nil {
		return err
	}
	if _, err := sys.Boot(); err != nil {
		return err
	}
	g := gcs.NewGroundStation(sys)
	if err := fly(g, 100*time.Millisecond); err != nil {
		return err
	}
	g.SendFrame(attack.Frame(payload))
	if err := fly(g, 4*time.Second); err != nil {
		return err
	}
	st := sys.Master.Stats()
	fmt.Printf("  MAVR board:         attack %s, failures detected=%d, reflashes=%d\n\n",
		okfail(sys.App.CPU.Data[firmware.AddrGyroCfg] == 0x7F),
		st.FailuresDetected, st.Randomizations-1)
	return nil
}

func okfail(ok bool) string {
	if ok {
		return "SUCCEEDED"
	}
	return "FAILED"
}

// matrix runs the stale stealthy attack against every deployment
// configuration the paper discusses and tabulates the outcomes.
func matrix() error {
	fmt.Println("DEPLOYMENT MATRIX — stale stealthy (V2) attack vs configuration")
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return err
	}
	patchedSpec := firmware.TestApp()
	patchedSpec.Vulnerable = false
	patched, err := firmware.Generate(patchedSpec, firmware.ModeMAVR)
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
	bootA := *a
	if err := bootA.UseFixedGadgets(img.Bootloader, firmware.BootloaderStart); err != nil {
		return err
	}
	bootPayload, err := attack.BuildV1(&bootA, attack.GyroCfgWrite(0x7F))
	if err != nil {
		return err
	}
	persistPayload, err := attack.BuildV1(&bootA,
		attack.EEPROMCfgWrites(firmware.EEPROMCfgAddr, 0x7F)...)
	if err != nil {
		return err
	}

	type row struct {
		name    string
		fw      *firmware.Image
		cfg     board.SystemConfig
		payload []byte
	}
	rows := []row{
		{"unprotected APM, vulnerable FW, V2", img,
			board.SystemConfig{Unprotected: true}, payload},
		{"unprotected APM, patched FW, V2", patched,
			board.SystemConfig{Unprotected: true}, payload},
		{"software-only randomization, V2", img,
			board.SystemConfig{SoftwareOnly: true, SoftwareSeed: 3}, payload},
		{"MAVR, V2", img,
			board.SystemConfig{Master: board.MasterConfig{Seed: 5, WatchdogTimeout: 20 * time.Millisecond}}, payload},
		{"MAVR + serial bootloader, boot-gadget V1", img,
			board.SystemConfig{Master: board.MasterConfig{Seed: 5, WatchdogTimeout: 20 * time.Millisecond}}, bootPayload},
		{"MAVR + bootloader, boot-gadget EEPROM V1", img,
			board.SystemConfig{Master: board.MasterConfig{Seed: 5, WatchdogTimeout: 20 * time.Millisecond}}, persistPayload},
	}
	fmt.Println("  configuration                              write  board-alive  master-recovered")
	for _, r := range rows {
		sys := board.NewSystem(r.cfg)
		if err := sys.FlashFirmware(r.fw); err != nil {
			return err
		}
		if _, err := sys.Boot(); err != nil {
			return err
		}
		g := gcs.NewGroundStation(sys)
		if err := g.Fly(100 * time.Millisecond); err != nil {
			return err
		}
		g.SendFrame(attack.Frame(r.payload))
		if err := g.Fly(3 * time.Second); err != nil {
			return err
		}
		landed := sys.App.CPU.Data[firmware.AddrGyroCfg] == 0x7F
		alive := sys.App.Running()
		recovered := "-"
		if sys.Master != nil {
			recovered = fmt.Sprintf("%v (%d reflashes)",
				sys.Master.Stats().FailuresDetected > 0, sys.Master.Stats().Randomizations-1)
		}
		fmt.Printf("  %-42s %-6v %-12v %s\n", r.name, landed, alive, recovered)
	}
	fmt.Println()
	return nil
}

func entropy() error {
	fmt.Println("ENTROPY (§VIII-B)")
	for _, spec := range firmware.Profiles() {
		fmt.Printf("  %-12s %4d symbols -> %7.0f bits\n",
			spec.Name, spec.Functions, core.EntropyBits(spec.Functions))
	}
	fmt.Printf("  (paper: ArduRover's 800 symbols -> 6567 bits; measured %.0f)\n\n",
		core.EntropyBits(800))
	return nil
}

func bruteforce() error {
	fmt.Println("BRUTE FORCE (§V-D): mean attempts, 4000 Monte-Carlo trials")
	fmt.Println("  n    fixed (model (n!+1)/2)    MAVR re-randomized (model n!)")
	for _, n := range []int{3, 4, 5} {
		// Worker-pool sweeps; deterministic for the fixed seed regardless
		// of worker count.
		f := core.SimulateBruteForceFixed(1, n, 4000, 0)
		r := core.SimulateBruteForceRerandomized(1, n, 4000, 0)
		fmt.Printf("  %d    %7.1f (%7.1f)           %7.1f (%7.1f)\n",
			n, f.MeanAttempts, f.ModelAttempts, r.MeanAttempts, r.ModelAttempts)
	}
	fmt.Println()
	return nil
}

// synthesis prints the attack-synthesis cost curve: chain search
// attempts against successive re-randomization epochs — the measured
// form of the paper's n! brute-force argument. Epoch 0 is the binary
// the shapes came from; later epochs replay the stale candidate set
// (plus blind probes) against fresh permutations and exhaust the
// budget.
func synthesis() error {
	fmt.Println("SYNTHESIS COST (§V-D measured): chain search vs re-randomization epoch, budget 24")
	pts, err := attack.SynthesisCostCurve(firmware.TestApp(), 3, 24, 7)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("  epoch=%d attempts=%d blind=%d found=%v stealthy=%v\n",
			p.Epoch, p.Attempts, p.Blind, p.Found, p.Stealthy)
	}
	fmt.Println()
	return nil
}

func fig1() error {
	fmt.Println("FIG. 1 — MEMORY FOR ATMEGA2560")
	fmt.Println(avr.FormatMemoryMap())
	return nil
}

func fig2() error {
	fmt.Println("FIG. 2 — MAVLINK PACKET STRUCTURE")
	fmt.Println(mavlink.HeaderDescription())
	return nil
}

func fig3() error {
	fmt.Println("FIG. 3 — ATTACK VECTOR")
	fmt.Println(`  [malicious / compromised ground station]
        | MAVLink over telemetry (oversize PARAM_SET frames)
        v
  [UAV: APM 2.5, ATmega2560] -- buffer overflow in handle_param_set
        | ROP chain: stk_move pivot -> write_mem writes -> frame repair
        v
  gyroscope configuration corrupted; telemetry continues normally`)
	fmt.Println()
	return nil
}

func fig45() error {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return err
	}
	sm, err := gadget.FindStkMove(img.Flash)
	if err != nil {
		return err
	}
	fmt.Println("FIG. 4 — stk_move GADGET")
	fmt.Print(asm.Disassemble(img.Flash, sm.Addr, 4+len(sm.PopRegs)))
	wm, err := gadget.FindWriteMem(img.Flash, 5)
	if err != nil {
		return err
	}
	fmt.Println("\nFIG. 5 — write_mem_gadget")
	fmt.Print(asm.Disassemble(img.Flash, wm.StoreAddr, 4+len(wm.PopRegs)))
	fmt.Println()
	return nil
}

func fig6() error {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return err
	}
	a, err := attack.Analyze(img.ELF)
	if err != nil {
		return err
	}
	snaps, err := attack.TraceV2(a, img.Flash, attack.GyroCfgWrite(0x7F))
	if err != nil {
		return err
	}
	fmt.Println("FIG. 6 — STACK PROGRESSION DURING ATTACK")
	for _, s := range snaps {
		fmt.Println(s)
	}
	return nil
}

func fig7() error {
	fmt.Println("FIG. 7 — MAVR SYSTEM DIAGRAM")
	fmt.Printf(`  [host PC] --preprocess (symbols+pointers prepended to HEX)--> [external flash M95M02, %dKB]
                                                                      |
                                              read+randomize+patch (streamed)
                                                                      v
  [master ATmega1284P] --serial bootloader @115200 baud--> [application ATmega2560]
         ^   watchdog feeds / boot handshake                   (readout fuse set)
         +----------------------------------------------------------+
  on missing feed or unexpected boot: reset, re-randomize, reprogram
`, board.ExternalFlashCapacity/1024)
	fmt.Println()
	return nil
}
