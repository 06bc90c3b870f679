// Performance benchmarks of the substrate: the emulator, randomizer,
// gadget scanner, MAVLink codec, board and brute-force simulator. The
// paper's tables, figures and ablations are computed by cmd/mavr-bench,
// whose output TestTranscript holds to a recorded transcript.
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

func BenchmarkBruteForce(b *testing.B) {
	for _, n := range []int{3, 4, 5} {
		n := n
		b.Run(map[int]string{3: "n3", 4: "n4", 5: "n5"}[n], func(b *testing.B) {
			// Worker-pool sweep with deterministic per-chunk RNGs: the
			// reported metrics are identical for a fixed seed no matter
			// how many workers run the trials.
			var fixed, rer core.BruteForceResult
			for i := 0; i < b.N; i++ {
				fixed = core.SimulateBruteForceFixed(1, n, 500)
				rer = core.SimulateBruteForceRerandomized(1, n, 500)
			}
			b.ReportMetric(fixed.MeanAttempts, "fixed_attempts")
			b.ReportMetric(rer.MeanAttempts, "mavr_attempts")
		})
	}
}

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
