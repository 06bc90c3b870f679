// mavr-bench regenerates every table, figure and ablation of the
// paper's evaluation from the simulation, printing paper-reported
// values next to measured ones. It is the only code that computes
// them: TestTranscript holds the full output byte for byte to
// testdata/paper.txt, which is re-recorded with
//
//	go run ./cmd/mavr-bench > cmd/mavr-bench/testdata/paper.txt
//
// Usage:
//
//	mavr-bench [-only table1,table2,table3,effectiveness,...,fig7,modularity,ablations]
//
// Timing benchmarks live in the packages' _test.go files; see
// benchmarks/baseline.txt for the command that regenerates them.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
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
	"mavr/internal/mavlink"
	"mavr/internal/scenario"
)

func main() {
	only := flag.String("only", "", "comma-separated subset of experiments")
	flag.Parse()
	out := bufio.NewWriter(os.Stdout)
	err := run(out, *only)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
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

// run writes the experiments selected by the -only list to w, in
// order. Each writes its section ending with a blank line, except
// ablations, the last.
func run(w io.Writer, only string) error {
	type step struct {
		name string
		fn   func(io.Writer) error
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
		{"modularity", modularity},
		{"ablations", ablations},
	}
	valid := make([]string, len(steps))
	for i, s := range steps {
		valid[i] = s.name
	}
	want, err := parseOnly(only, valid)
	if err != nil {
		return err
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	for _, s := range steps {
		if !sel(s.name) {
			continue
		}
		if err := s.fn(w); err != nil {
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

func table1(w io.Writer) error {
	fmt.Fprintln(w, "TABLE I — NUMBER OF FUNCTIONS")
	fmt.Fprintln(w, "  application   paper   measured")
	imgs, err := genAll()
	if err != nil {
		return err
	}
	counts := make([]int, len(imgs))
	var sum int
	for i, img := range imgs {
		counts[i] = len(img.ELF.FuncSymbols())
		sum += counts[i]
		fmt.Fprintf(w, "  %-12s  %5d   %8d\n", img.Spec.Name, paperTables["functions"][i], counts[i])
	}
	slices.Sort(counts) // three profiles: the median is the middle count
	fmt.Fprintf(w, "  average %.2f (paper 915.67), median %d (paper 917)\n\n",
		float64(sum)/float64(len(counts)), counts[len(counts)/2])
	return nil
}

func table2(w io.Writer) error {
	fmt.Fprintln(w, "TABLE II — MAVR STARTUP OVERHEAD (115200-baud programming path)")
	fmt.Fprintln(w, "  application   paper(ms)   measured(ms)")
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
		fmt.Fprintf(w, "  %-12s  %9d   %12d\n", img.Spec.Name, paperTables["startupMs"][i], ms)
	}
	fmt.Fprintf(w, "  average %.2f ms (paper 18609 ms)\n\n", float64(total)/float64(len(imgs)))
	return nil
}

func table3(w io.Writer) error {
	fmt.Fprintln(w, "TABLE III — CHANGE IN CODE SIZE")
	fmt.Fprintln(w, "  application   stock(paper)  stock(meas)  mavr(paper)  mavr(meas)")
	for i, spec := range firmware.Profiles() {
		stock, err := firmware.Generate(spec, firmware.ModeStock)
		if err != nil {
			return err
		}
		mavrImg, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-12s  %12d  %11d  %11d  %10d\n", spec.Name,
			paperTables["stockSize"][i], len(stock.Flash),
			paperTables["mavrSize"][i], len(mavrImg.Flash))
	}
	fmt.Fprintln(w)
	return nil
}

func effectiveness(w io.Writer) error {
	fmt.Fprintln(w, "EFFECTIVENESS (§VII-A)")
	img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		return err
	}
	gs := gadget.Scan(img.Flash, 24)
	fmt.Fprintf(w, "  gadget census on the test application: %d (paper: 953)\n", len(gs))
	specs := scenario.Effectiveness()
	open, err := scenario.Run(specs[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %s:  attack %s, GCS detected: %v\n", specs[0].Notes,
		okfail(open.Verdict.GyroCfg == 0x7F), open.Verdict.Compromised)
	res, err := scenario.Run(specs[1])
	if err != nil {
		return err
	}
	v := res.Verdict
	fmt.Fprintf(w, "  %s:         attack %s, failures detected=%d, reflashes=%d\n\n", specs[1].Notes,
		okfail(v.GyroCfg == 0x7F), v.FailuresDetected, v.Reflashes)
	return nil
}

func okfail(ok bool) string {
	if ok {
		return "SUCCEEDED"
	}
	return "FAILED"
}

// matrix runs scenario.Matrix, the stale stealthy attack against every
// deployment configuration the paper discusses, and tabulates the
// verdicts.
func matrix(w io.Writer) error {
	fmt.Fprintln(w, "DEPLOYMENT MATRIX — stale stealthy (V2) attack vs configuration")
	fmt.Fprintln(w, "  configuration                              write  board-alive  master-recovered")
	for _, spec := range scenario.Matrix() {
		res, err := scenario.Run(spec)
		if err != nil {
			return err
		}
		v := res.Verdict
		recovered := "-"
		if spec.Board == scenario.BoardMAVR {
			recovered = fmt.Sprintf("%v (%d reflashes)", v.FailuresDetected > 0, v.Reflashes)
		}
		fmt.Fprintf(w, "  %-42s %-6v %-12v %s\n", spec.Notes, v.GyroCfg == 0x7F, v.BoardAlive, recovered)
	}
	fmt.Fprintln(w)
	return nil
}

func entropy(w io.Writer) error {
	fmt.Fprintln(w, "ENTROPY (§VIII-B)")
	for _, spec := range firmware.Profiles() {
		fmt.Fprintf(w, "  %-12s %4d symbols -> %7.0f bits\n",
			spec.Name, spec.Functions, core.EntropyBits(spec.Functions))
	}
	fmt.Fprintf(w, "  (paper: ArduRover's 800 symbols -> 6567 bits; measured %.0f)\n\n",
		core.EntropyBits(800))
	return nil
}

func bruteforce(w io.Writer) error {
	fmt.Fprintln(w, "BRUTE FORCE (§V-D): mean attempts, 4000 Monte-Carlo trials")
	fmt.Fprintln(w, "  n    fixed (model (n!+1)/2)    MAVR re-randomized (model n!)")
	for _, n := range []int{3, 4, 5} {
		// Worker-pool sweeps; deterministic for the fixed seed regardless
		// of worker count.
		f := core.SimulateBruteForceFixed(1, n, 4000)
		r := core.SimulateBruteForceRerandomized(1, n, 4000)
		fmt.Fprintf(w, "  %d    %7.1f (%7.1f)           %7.1f (%7.1f)\n",
			n, f.MeanAttempts, f.ModelAttempts, r.MeanAttempts, r.ModelAttempts)
	}
	fmt.Fprintln(w)
	return nil
}

// synthesis prints the attack-synthesis cost curve: chain search
// attempts against successive re-randomization epochs — the measured
// form of the paper's n! brute-force argument. Epoch 0 is the binary
// the shapes came from; later epochs replay the stale candidate set
// (plus blind probes) against fresh permutations and exhaust the
// budget.
func synthesis(w io.Writer) error {
	fmt.Fprintln(w, "SYNTHESIS COST (§V-D measured): chain search vs re-randomization epoch, budget 24")
	pts, err := attack.SynthesisCostCurve(firmware.TestApp(), 3, 24, 7)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Fprintf(w, "  epoch=%d attempts=%d blind=%d found=%v stealthy=%v\n",
			p.Epoch, p.Attempts, p.Blind, p.Found, p.Stealthy)
	}
	fmt.Fprintln(w)
	return nil
}

func fig1(w io.Writer) error {
	fmt.Fprintln(w, "FIG. 1 — MEMORY FOR ATMEGA2560")
	fmt.Fprintln(w, avr.FormatMemoryMap())
	return nil
}

func fig2(w io.Writer) error {
	fmt.Fprintln(w, "FIG. 2 — MAVLINK PACKET STRUCTURE")
	fmt.Fprintln(w, mavlink.HeaderDescription())
	return nil
}

func fig3(w io.Writer) error {
	fmt.Fprintln(w, "FIG. 3 — ATTACK VECTOR")
	fmt.Fprintln(w, `  [malicious / compromised ground station]
        | MAVLink over telemetry (oversize PARAM_SET frames)
        v
  [UAV: APM 2.5, ATmega2560] -- buffer overflow in handle_param_set
        | ROP chain: stk_move pivot -> write_mem writes -> frame repair
        v
  gyroscope configuration corrupted; telemetry continues normally`)
	fmt.Fprintln(w)
	return nil
}

func fig45(w io.Writer) error {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return err
	}
	gs := gadget.Scan(img.Flash, 24)
	sm, err := gadget.FindStkMove(gs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FIG. 4 — stk_move GADGET")
	fmt.Fprint(w, asm.Disassemble(img.Flash, sm.Addr, 4+len(sm.PopRegs)))
	wm, err := gadget.FindWriteMem(gs, 5)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nFIG. 5 — write_mem_gadget")
	fmt.Fprint(w, asm.Disassemble(img.Flash, wm.StoreAddr, 4+len(wm.PopRegs)))
	fmt.Fprintln(w)
	return nil
}

func fig6(w io.Writer) error {
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
	fmt.Fprintln(w, "FIG. 6 — STACK PROGRESSION DURING ATTACK")
	for _, s := range snaps {
		fmt.Fprintln(w, s)
	}
	return nil
}

func fig7(w io.Writer) error {
	fmt.Fprintln(w, "FIG. 7 — MAVR SYSTEM DIAGRAM")
	fmt.Fprintf(w, `  [host PC] --preprocess (symbols+pointers prepended to HEX)--> [external flash M95M02, %dKB]
                                                                      |
                                              read+randomize+patch (streamed)
                                                                      v
  [master ATmega1284P] --serial bootloader @115200 baud--> [application ATmega2560]
         ^   watchdog feeds / boot handshake                   (readout fuse set)
         +----------------------------------------------------------+
  on missing feed or unexpected boot: reset, re-randomize, reprogram
`, board.ExternalFlashCapacity/1024)
	fmt.Fprintln(w)
	return nil
}

// modularity measures the §VII-A1 observation that "good code design
// that utilizes more modules also increases the number of symbols that
// can be shuffled around by MAVR, hence increasing brute force effort":
// the test application scaled to n functions, its gadget census and
// its permutation entropy.
func modularity(w io.Writer) error {
	fmt.Fprintln(w, "MODULARITY (§VII-A1): test application scaled to n functions")
	fmt.Fprintln(w, "  functions  gadgets  entropy(bits)")
	for _, n := range []int{100, 300, 600, 917} {
		spec := firmware.TestApp()
		spec.Functions = n
		spec.Seed = int64(n)
		spec.DirectPointerTable = false
		img, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %9d  %7d  %13.1f\n", n, len(gadget.Scan(img.Flash, 24)), core.EntropyBits(n))
	}
	fmt.Fprintln(w)
	return nil
}

// ablations demonstrates the design alternatives the paper discusses
// and rejects: the fixed-location serial bootloader versus hardware ISP
// (§VI-B4), the software-only deployment (§VIII-A), random
// inter-function padding (§VIII-B), stack canaries (§IX), the
// randomization-frequency/flash-endurance tradeoff (§V-C) and the
// production programming path (§VII-B1).
func ablations(w io.Writer) error {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return err
	}

	// --- §VI-B4: bootloader gadgets survive randomization. ---
	fmt.Fprintln(w, "§VI-B4 — fixed serial bootloader vs hardware ISP")
	boot, err := attack.Analyze(img.ELF)
	if err != nil {
		return err
	}
	if err := boot.UseFixedGadgets(img.Bootloader, firmware.BootloaderStart); err != nil {
		return err
	}
	payload, err := attack.BuildV1(boot, attack.GyroCfgWrite(0x6A))
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
	fmt.Fprintf(w, "  bootloader-gadget write landed on %d/%d randomized layouts\n", landed, trials)
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
		fmt.Fprintf(w, "  hardware-ISP build: %v (no fixed gadgets exist)\n\n", err)
	}

	// --- §VIII-A: software-only deployment. ---
	fmt.Fprintln(w, "§VIII-A — software-only (flash-time) randomization")
	var dumps [2][]byte // two flashes with the same seed
	for i := range dumps {
		sys := board.NewSystem(board.SystemConfig{SoftwareOnly: true, SoftwareSeed: 3})
		if err := sys.FlashFirmware(img); err != nil {
			return err
		}
		if _, err := sys.Boot(); err != nil {
			return err
		}
		if dumps[i], err = sys.App.ReadFlashExternally(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "  layout identical across reflashes: %v (failed attempts leak durable information)\n", slices.Equal(dumps[0], dumps[1]))
	fmt.Fprintf(w, "  no readout fuse: debugger dump succeeded (%d bytes)\n", len(dumps[0]))
	fixed := core.SimulateBruteForceFixed(1, 4, 2000)
	rer := core.SimulateBruteForceRerandomized(1, 4, 2000)
	fmt.Fprintf(w, "  brute force at n=4: fixed layout %.1f attempts vs MAVR %.1f\n\n",
		fixed.MeanAttempts, rer.MeanAttempts)

	// --- §VIII-B: padding entropy. ---
	fmt.Fprintln(w, "§VIII-B — random inter-function padding")
	perm := core.EntropyBits(800)
	pad := core.PaddingEntropyBits(800, (262144-177556)/2)
	fmt.Fprintf(w, "  permutation alone: %.0f bits; padding could add %.0f more — unnecessary\n\n", perm, pad)

	// --- §IX: stack canary runtime cost. ---
	fmt.Fprintln(w, "§IX — stack canaries (runtime checks MAVR avoids)")
	var cycles [2]uint64 // handler cost without and with the canary
	for i, canary := range []bool{false, true} {
		spec := firmware.TestApp()
		spec.StackCanaries = canary
		ci, err := firmware.Generate(spec, firmware.ModeMAVR)
		if err != nil {
			return err
		}
		var handler uint32
		for _, s := range ci.ELF.FuncSymbols() {
			if s.Name == "handle_param_set" {
				handler = s.Value / 2
			}
		}
		sim, err := attack.NewSim(ci.Flash)
		if err != nil {
			return err
		}
		sim.SendFrame(attack.Frame(make([]byte, 23)))
		if ok, _ := sim.CPU.RunUntil(5_000_000, func(c *avr.CPU) bool { return c.PC == handler }); !ok {
			return fmt.Errorf("handler never reached")
		}
		start := sim.CPU.Cycles
		sp := sim.CPU.SP()
		if ok, _ := sim.CPU.RunUntil(100_000, func(c *avr.CPU) bool { return c.SP() > sp }); !ok {
			return fmt.Errorf("handler never returned")
		}
		cycles[i] = sim.CPU.Cycles - start
	}
	fmt.Fprintf(w, "  handler cost: %d cycles plain, %d with canary (+%d per packet, on a 96%%-utilized CPU)\n",
		cycles[0], cycles[1], cycles[1]-cycles[0])
	fmt.Fprint(w, "  and a canary detection cannot recover in flight — MAVR's reflash can\n\n")

	// --- §V-C: randomization frequency vs flash endurance. ---
	fmt.Fprintln(w, "§V-C — randomization frequency vs 10,000-cycle flash endurance")
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
		fmt.Fprintf(w, "  randomize every %2d boots: %2d program cycles per %d boots -> ~%d-boot lifetime\n",
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
	fmt.Fprintf(w, "\n§VII-B1 — production PCB estimate: ArduPlane reprograms in %v (paper estimates ~4s)\n",
		rep.Total.Round(time.Millisecond))
	return nil
}
