// Benchmarks regenerating the paper's evaluation artifacts (one per
// table/figure) plus performance benchmarks of the substrate itself.
// Reported custom metrics carry the measured values next to the units
// the paper uses.
package mavr_test

import (
	"io"
	"math/rand"
	"testing"
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

// --- Table I: number of functions ---------------------------------------

func BenchmarkTableI_FunctionCounts(b *testing.B) {
	paper := map[string]int{"arduplane": 917, "arducopter": 1030, "ardurover": 800}
	for _, spec := range firmware.Profiles() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				img, err := firmware.Generate(spec, firmware.ModeMAVR)
				if err != nil {
					b.Fatal(err)
				}
				n = len(img.ELF.FuncSymbols())
			}
			b.ReportMetric(float64(n), "functions")
			b.ReportMetric(float64(paper[spec.Name]), "paper_functions")
		})
	}
}

// --- Table II: startup overhead ------------------------------------------

func BenchmarkTableII_StartupOverhead(b *testing.B) {
	paper := map[string]int64{"arduplane": 19209, "arducopter": 21206, "ardurover": 15412}
	for _, spec := range firmware.Profiles() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			img, err := firmware.Generate(spec, firmware.ModeMAVR)
			if err != nil {
				b.Fatal(err)
			}
			var ms int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys := board.NewSystem(board.SystemConfig{Master: board.MasterConfig{Seed: int64(i) + 1}})
				if err := sys.FlashFirmware(img); err != nil {
					b.Fatal(err)
				}
				rep, err := sys.Boot()
				if err != nil {
					b.Fatal(err)
				}
				ms = rep.Total.Milliseconds()
			}
			b.ReportMetric(float64(ms), "sim_ms")
			b.ReportMetric(float64(paper[spec.Name]), "paper_ms")
		})
	}
}

// --- Table III: change in code size --------------------------------------

func BenchmarkTableIII_CodeSize(b *testing.B) {
	paperStock := map[string]int{"arduplane": 221608, "arducopter": 244532, "ardurover": 177870}
	paperMAVR := map[string]int{"arduplane": 221294, "arducopter": 244292, "ardurover": 177556}
	for _, spec := range firmware.Profiles() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var stockN, mavrN int
			for i := 0; i < b.N; i++ {
				stock, err := firmware.Generate(spec, firmware.ModeStock)
				if err != nil {
					b.Fatal(err)
				}
				mv, err := firmware.Generate(spec, firmware.ModeMAVR)
				if err != nil {
					b.Fatal(err)
				}
				stockN, mavrN = len(stock.Flash), len(mv.Flash)
			}
			b.ReportMetric(float64(stockN), "stock_B")
			b.ReportMetric(float64(paperStock[spec.Name]), "paper_stock_B")
			b.ReportMetric(float64(mavrN), "mavr_B")
			b.ReportMetric(float64(paperMAVR[spec.Name]), "paper_mavr_B")
		})
	}
}

// --- §VII-A effectiveness -------------------------------------------------

func BenchmarkEffectiveness_GadgetCensus(b *testing.B) {
	img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = len(gadget.Scan(img.Flash, 24))
	}
	b.ReportMetric(float64(n), "gadgets")
	b.ReportMetric(953, "paper_gadgets")
}

func BenchmarkEffectiveness_StealthyAttackVsRandomized(b *testing.B) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	a, err := attack.Analyze(img.ELF)
	if err != nil {
		b.Fatal(err)
	}
	payload, err := attack.BuildV2(a, attack.GyroCfgWrite(0x7F))
	if err != nil {
		b.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// One simulator for the whole sweep: each permutation reloads flash
	// and resets the core instead of reallocating the 256 KiB memories.
	sim, err := attack.NewSim(img.Flash)
	if err != nil {
		b.Fatal(err)
	}
	succeeded := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.Randomize(pre, core.Permutation(rng, len(pre.Blocks)))
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Reset(r.Image); err != nil {
			b.Fatal(err)
		}
		fault := sim.Deliver(attack.Frame(payload), 200_000)
		if fault == nil && sim.CPU.Data[firmware.AddrGyroCfg] == 0x7F {
			succeeded++
		}
	}
	b.ReportMetric(float64(succeeded)/float64(b.N), "attack_success_rate")
}

// --- §V-D / §VIII-B security models ---------------------------------------

func BenchmarkBruteForce(b *testing.B) {
	for _, n := range []int{3, 4, 5} {
		n := n
		b.Run(map[int]string{3: "n3", 4: "n4", 5: "n5"}[n], func(b *testing.B) {
			// Worker-pool sweep with deterministic per-chunk RNGs: the
			// reported metrics are identical for a fixed seed no matter
			// how many workers run the trials.
			var fixed, rer core.BruteForceResult
			for i := 0; i < b.N; i++ {
				fixed = core.SimulateBruteForceFixed(1, n, 500, 0)
				rer = core.SimulateBruteForceRerandomized(1, n, 500, 0)
			}
			b.ReportMetric(fixed.MeanAttempts, "fixed_attempts")
			b.ReportMetric(rer.MeanAttempts, "mavr_attempts")
		})
	}
}

func BenchmarkEntropy(b *testing.B) {
	var bits float64
	for i := 0; i < b.N; i++ {
		bits = core.EntropyBits(800)
	}
	b.ReportMetric(bits, "bits")
	b.ReportMetric(6567, "paper_bits")
}

// --- Fig. 6: stealthy attack trace ----------------------------------------

func BenchmarkFig6_StackTrace(b *testing.B) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	a, err := attack.Analyze(img.ELF)
	if err != nil {
		b.Fatal(err)
	}
	var snaps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := attack.TraceV2(a, img.Flash, attack.GyroCfgWrite(0x7F))
		if err != nil {
			b.Fatal(err)
		}
		snaps = len(s)
	}
	b.ReportMetric(float64(snaps), "stages")
}

// --- Substrate performance benchmarks -------------------------------------

func BenchmarkCPUExecution(b *testing.B) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := attack.NewSim(img.Flash)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := sim.CPU.Cycles
	for i := 0; i < b.N; i++ {
		if f := sim.Run(10_000); f != nil {
			b.Fatal(f)
		}
	}
	b.ReportMetric(float64(sim.CPU.Cycles-start)/float64(b.N), "cycles/op")
}

// BenchmarkScenarioReplay replays the richest golden scenario end to
// end (firmware generation, boot, attack injection, MAVR response) —
// the deterministic-harness workload the block translation engine is
// meant to accelerate.
func BenchmarkScenarioReplay(b *testing.B) {
	spec, err := scenario.Lookup("v2-vs-mavr-detected")
	if err != nil {
		b.Fatal(err)
	}
	var records int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := scenario.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		records = len(r.Records)
	}
	b.ReportMetric(float64(records), "records")
}

func BenchmarkRandomizeArduplane(b *testing.B) {
	img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Randomize(pre, core.Permutation(rng, len(pre.Blocks))); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(img.Flash)))
}

func BenchmarkGadgetScanArduplane(b *testing.B) {
	img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gadget.Scan(img.Flash, 24)
	}
	b.SetBytes(int64(len(img.Flash)))
}

func BenchmarkMAVLinkRoundTrip(b *testing.B) {
	hb := &mavlink.Heartbeat{Type: 1, SystemStatus: mavlink.StateActive}
	f := &mavlink.Frame{MsgID: mavlink.MsgIDHeartbeat, Payload: hb.Marshal()}
	wire, err := f.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var p mavlink.Parser
		if got := p.FeedBytes(wire); len(got) != 1 {
			b.Fatal("parse failed")
		}
	}
	b.SetBytes(int64(len(wire)))
}

func BenchmarkDisassemble(b *testing.B) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asm.Disassemble(img.Flash, 0, 200)
	}
}

func BenchmarkDecode(b *testing.B) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	words := uint32(len(img.Flash) / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		avr.DecodeAt(img.Flash, uint32(i)%words)
	}
}

func BenchmarkBoardSimulatedSecond(b *testing.B) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := board.NewSystem(board.SystemConfig{Unprotected: true})
		if err := sys.FlashFirmware(img); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Boot(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := sys.Run(100 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamRandomizeArduplane(b *testing.B) {
	img, err := firmware.Generate(firmware.Arduplane(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.StreamRandomize(pre, core.Permutation(rng, len(pre.Blocks)), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(img.Flash)))
}

func BenchmarkBootloaderProgramming(b *testing.B) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		app := board.NewAppProcessor()
		app.InstallBootloader(img.Bootloader, firmware.BootloaderStart)
		c, err := app.ProgramViaBootloader(img.Flash)
		if err != nil {
			b.Fatal(err)
		}
		cycles = c
	}
	b.SetBytes(int64(len(img.Flash)))
	b.ReportMetric(float64(cycles)/float64(len(img.Flash)), "cycles/byte")
}
