package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mavr/internal/attack"
	"mavr/internal/board"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/gcs"
	"mavr/internal/scenario"
	"mavr/internal/scengen"
	"mavr/internal/staticverify"
)

// goldenDir holds the golden traces, relative to the checkout root the
// benchmark runs from.
const goldenDir = "testdata/golden"

// sweepRecord is the output of `go run ./cmd/mavr-scengen run -n 120`
// at the commit that defined the benchmark: one trace digest per seed.
//
//go:embed testdata/scengen-sweep.txt
var sweepRecord string

// sweepSeeds is the scengen seed set the sweep runs: the seeds of
// sweepRecord, so every item's trace is checked against its digest.
var sweepSeeds = func() []int64 {
	var out []int64
	for s := range parseSweepRecord(sweepRecord) {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}()

// parseSweepRecord maps scengen seed to trace digest.
func parseSweepRecord(text string) map[int64]string {
	out := make(map[int64]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		var seed int64 = -1
		var digest string
		for _, f := range strings.Fields(sc.Text()) {
			if v, ok := strings.CutPrefix(f, "gen-"); ok {
				if n, err := strconv.ParseInt(v, 10, 64); err == nil {
					seed = n
				}
			}
			if v, ok := strings.CutPrefix(f, "digest="); ok {
				digest = v
			}
		}
		if seed >= 0 && digest != "" {
			out[seed] = digest
		}
	}
	return out
}

// flightSteps is the length of the benchmark flight loop, in 10ms
// monitor steps.
const flightSteps = 20

// replayInst is the replay-golden workload: the builtin scenarios in a
// seed-shuffled order per pass, each trace byte-compared with its
// golden file.
type replayInst struct {
	seed    int64
	specs   []scenario.Spec
	golden  map[string][]byte
	startup []float64 // Table II startup per profile, simulated seconds
}

func setupReplay(seed int64) (instance, error) {
	r := &replayInst{seed: seed, specs: scenario.Builtin(), golden: map[string][]byte{}}
	for _, s := range r.specs {
		b, err := os.ReadFile(filepath.Join(goldenDir, s.Name+".jsonl"))
		if err != nil {
			return nil, err
		}
		r.golden[s.Name] = b
	}
	// Warm up on a fixed item so set-up time does not depend on the seed.
	if _, err := runScenario(nil, 0, 0, r.specs[0], r.checkGolden); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

// spec returns item k: pass k/len(specs), shuffled by the seed.
func (r *replayInst) spec(k int) scenario.Spec {
	n := len(r.specs)
	pass := int64(k / n)
	perm := rand.New(rand.NewSource(r.seed*1_000_003 + pass)).Perm(n)
	return r.specs[perm[k%n]]
}

func (r *replayInst) checkGolden(res *scenario.Result, trace []byte) error {
	want := r.golden[res.Spec.Name]
	if !bytes.Equal(trace, want) {
		return fmt.Errorf("%s: trace differs from %s/%s.jsonl", res.Spec.Name, goldenDir, res.Spec.Name)
	}
	return nil
}

func (r *replayInst) item(c, k, id int, tr *tracer, root int) (func() error, error) {
	return runScenario(tr, id, root, r.spec(k), r.checkGolden)
}

// paperStartupS is Table II's average startup overhead, which this
// simulation reproduces to the millisecond.
const paperStartupS = 18.609

// finish reproduces Table II: the MAVR boot of each paper profile on
// the 115200-baud programming path, in simulated time.
func (r *replayInst) finish(tr *tracer) []error {
	if tr != nil {
		return nil
	}
	r.startup = nil
	var sum float64
	for i, p := range firmware.Profiles() {
		img, err := firmware.Generate(p, firmware.ModeMAVR)
		if err != nil {
			return []error{err}
		}
		sys := board.NewSystem(board.SystemConfig{Master: board.MasterConfig{Seed: int64(i) + 1}})
		if err := sys.FlashFirmware(img); err != nil {
			return []error{err}
		}
		rep, err := sys.Boot()
		if err != nil {
			return []error{err}
		}
		r.startup = append(r.startup, rep.Total.Seconds())
		sum += rep.Total.Seconds()
	}
	avg := sum / float64(len(r.startup))
	if d := avg - paperStartupS; d < -0.0005 || d >= 0.0005 {
		return []error{fmt.Errorf("Table II startup reads %.4f s, want %.3f s", avg, paperStartupS)}
	}
	return nil
}

func (r *replayInst) extraLines() []string {
	if len(r.startup) == 0 {
		return nil
	}
	var sum float64
	var out []string
	for i, p := range firmware.Profiles() {
		sum += r.startup[i]
		out = append(out, line("replay-golden", "board.startup_sim_s."+p.Name, r.startup[i], "sim_s"))
	}
	return append(out, line("replay-golden", "startup_sim_s", sum/float64(len(r.startup)), "sim_s"))
}

func (r *replayInst) close() {}

// sweepInst is the scengen-sweep workload: the recorded scengen seeds
// in a seed-shuffled order, each trace checked against its recorded
// digest and the invariant library.
type sweepInst struct {
	specs  []scenario.Spec
	digest map[int64]string
	order  []int
}

func setupSweep(seed int64) (instance, error) {
	s := &sweepInst{digest: parseSweepRecord(sweepRecord)}
	for _, g := range sweepSeeds {
		s.specs = append(s.specs, scengen.Generate(g))
	}
	s.order = rand.New(rand.NewSource(seed)).Perm(len(s.specs))
	if _, err := runScenario(nil, 0, 0, s.specs[0], s.check(nil, 0, 0)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// check returns the sweep's output check: the recorded digest, then the
// invariant library, traced as a child of root.
func (s *sweepInst) check(tr *tracer, id, root int) func(*scenario.Result, []byte) error {
	return func(res *scenario.Result, trace []byte) error {
		h := fnv.New64a()
		h.Write(trace)
		if got, want := fmt.Sprintf("%016x", h.Sum64()), s.digest[res.Spec.Seed]; got != want {
			return fmt.Errorf("%s: trace digest %s, recorded %s", res.Spec.Name, got, want)
		}
		return tr.do("scengen.CheckAll", id, root, func() error {
			if ds := scengen.CheckAll(res.Spec, res.Records); len(ds) > 0 {
				return fmt.Errorf("%s: %d invariant violations, first: %v", res.Spec.Name, len(ds), ds[0])
			}
			return nil
		})
	}
}

func (s *sweepInst) item(c, k, id int, tr *tracer, root int) (func() error, error) {
	spec := s.specs[s.order[k%len(s.order)]]
	after, err := runScenario(tr, id, root, spec, s.check(tr, id, root))
	if err != nil || tr == nil {
		return after, err
	}
	return func() error {
		if err := after(); err != nil {
			return err
		}
		countSpec(tr, spec)
		p := tr.begin(probeRoot, id, 0)
		defer tr.end(p)
		return tr.do("scengen.Generate", id, p, func() error {
			scengen.Generate(spec.Seed)
			return nil
		})
	}, nil
}

// countSpec counts the generated-spec properties the sweep's tail
// depends on.
func countSpec(tr *tracer, spec scenario.Spec) {
	tr.add("scengen.specs", 1)
	if spec.App != "" && spec.App != "testapp" {
		tr.add("scengen.heavy", 1)
	}
	if hasSynth(spec) {
		tr.add("scengen.synth", 1)
	}
}

func (s *sweepInst) finish(*tracer) []error { return nil }
func (s *sweepInst) close()                 {}

func hasSynth(spec scenario.Spec) bool {
	for _, inj := range spec.Injections {
		if inj.Kind == scenario.InjectSynth {
			return true
		}
	}
	return false
}

// epoch is one master randomization observed during a scenario.
type epoch struct {
	pre  *core.Preprocessed
	perm []int
}

// runScenario runs spec as one item: scenario.Run, the canonical
// encoding, then check on the encoded trace, with Run and the encoding
// traced as children of root. With a tracer, the returned function
// times the public calls Run makes internally by repeating them on the
// same inputs as children of the scenario.Run span, counts the item's
// work, and flies the benchmark flight loop on the item's firmware.
func runScenario(tr *tracer, id, root int, spec scenario.Spec, check func(*scenario.Result, []byte) error) (func() error, error) {
	var epochs []epoch
	if tr != nil && spec.Board == scenario.BoardMAVR {
		spec.Observe = func(sys *board.System) {
			sys.Master.Instrument(func(pre *core.Preprocessed, r *core.Randomized) {
				epochs = append(epochs, epoch{pre, r.Perm})
			})
		}
	}
	t0 := time.Now()
	runID := tr.begin("scenario.Run", id, root)
	res, err := scenario.Run(spec)
	tr.end(runID)
	runNs := time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tr.do("scenario.AppendTrace", id, root, func() error { return scenario.AppendTrace(&buf, res.Records) }); err != nil {
		return nil, err
	}
	if err := check(res, buf.Bytes()); err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, nil
	}
	return func() error {
		eff := spec.Effective()
		tr.add("scenario.items", 1)
		tr.add("scenario.records", float64(len(res.Records)))
		tr.add("scenario.trace_bytes", float64(buf.Len()))
		tr.add("speed.sim_ns", float64(eff.Run))
		tr.add("speed.host_ns", float64(runNs))
		if m := res.Sys.Master; m != nil {
			tr.add("scenario.epochs", float64(m.Stats().Randomizations))
			tr.add("scenario.reflashes", float64(len(res.Sys.Reflashes())))
		}
		img, err := scenarioInternals(tr, id, runID, eff, epochs)
		if err != nil {
			return err
		}
		return flight(tr, id, img)
	}, nil
}

// scenarioInternals repeats, as children of the scenario.Run span, the
// public calls scenario.Run makes: firmware generation, preprocessing
// (FlashFirmware), payload building and chain synthesis for the
// injections, and each master epoch's randomization and pre-flash
// verification. It returns the generated firmware.
func scenarioInternals(tr *tracer, id, runID int, spec scenario.Spec, epochs []epoch) (*firmware.Image, error) {
	app, err := appSpec(spec.App)
	if err != nil {
		return nil, err
	}
	var img *firmware.Image
	if err := tr.do("firmware.Generate", id, runID, func() (err error) {
		img, err = firmware.Generate(app, firmware.ModeMAVR)
		return err
	}); err != nil {
		return nil, err
	}
	var pre *core.Preprocessed
	if err := tr.do("core.Preprocess", id, runID, func() (err error) {
		pre, err = core.Preprocess(img.ELF)
		return err
	}); err != nil {
		return nil, err
	}
	if len(spec.Injections) > 0 {
		if err := tr.do("attack.payload", id, runID, func() error { return buildPayloads(img, spec.Injections) }); err != nil {
			return nil, err
		}
	}
	if hasSynth(spec) {
		var s *attack.Synthesis
		if err := tr.do("attack.Synthesize", id, runID, func() (err error) {
			s, err = attack.Synthesize(img.ELF, attack.SynthOptions{Stealth: true, Seed: spec.Seed})
			return err
		}); err != nil {
			return nil, err
		}
		tr.add("synth.calls", 1)
		tr.add("synth.attempts", float64(s.Attempts))
	}
	if spec.Board == scenario.BoardSoftwareOnly {
		epochs = append(epochs, epoch{pre, core.Permutation(rand.New(rand.NewSource(spec.Seed)), len(pre.Blocks))})
	}
	for _, e := range epochs {
		var r *core.Randomized
		if err := tr.do("core.Randomize", id, runID, func() (err error) {
			r, err = core.Randomize(e.pre, e.perm)
			return err
		}); err != nil {
			return nil, err
		}
		if spec.Board != scenario.BoardMAVR || spec.SkipVerify {
			continue
		}
		if err := tr.do("staticverify.Verify", id, runID, func() error {
			if rep := staticverify.Verify(e.pre, r, staticverify.Options{}); !rep.OK() {
				return fmt.Errorf("epoch verification: %d errors", rep.Errors())
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// buildPayloads builds the attack payloads of injs the way the scenario
// runner does: one analysis of the stock binary, then one builder call
// per injection (synthesized chains are timed separately).
func buildPayloads(img *firmware.Image, injs []scenario.Injection) error {
	a, err := attack.Analyze(img.ELF)
	if err != nil {
		return err
	}
	for _, inj := range injs {
		addr := inj.Addr
		if addr == 0 {
			addr = firmware.AddrGyroCfg
		}
		w := attack.Write{Addr: addr, Vals: [3]byte{inj.Value}}
		switch inj.Kind {
		case scenario.InjectV1:
			_, err = attack.BuildV1(a, w)
		case scenario.InjectV2:
			_, err = attack.BuildV2(a, w)
		case scenario.InjectV3:
			n, stage := inj.StageWrites, inj.StageAddr
			if n == 0 {
				n = 4
			}
			if stage == 0 {
				stage = firmware.AddrFreeMem
			}
			writes := make([]attack.Write, n)
			for i := range writes {
				writes[i] = attack.Write{Addr: addr + uint16(3*i), Vals: [3]byte{inj.Value, byte(i), byte(i + 100)}}
			}
			_, err = attack.BuildV3(a, writes, stage)
		case scenario.InjectProbe:
			_, err = attack.BuildV1(a.AssumeWriteMem(inj.Candidate), w)
		}
		if err != nil {
			return fmt.Errorf("%s payload: %w", inj.Kind, err)
		}
	}
	return nil
}

// appSpec resolves a scenario's firmware profile name.
func appSpec(name string) (firmware.AppSpec, error) {
	if name == "" || name == "testapp" {
		return firmware.TestApp(), nil
	}
	for _, p := range firmware.Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return firmware.AppSpec{}, fmt.Errorf("unknown app profile %q", name)
}

// flight is the benchmark flight loop: img on an unprotected board,
// System.Run(10ms) → DrainGCS → Monitor.Feed for flightSteps steps,
// with the board and monitor time and the work counts accumulated.
func flight(tr *tracer, id int, img *firmware.Image) error {
	p := tr.begin(probeRoot, id, 0)
	defer tr.end(p)
	sys := board.NewSystem(board.SystemConfig{Unprotected: true})
	if err := sys.FlashFirmware(img); err != nil {
		return err
	}
	if _, err := sys.Boot(); err != nil {
		return err
	}
	var mon gcs.Monitor
	const step = 10 * time.Millisecond
	var runNs, feedNs, bytesFed int64
	for i := 0; i < flightSteps; i++ {
		t0 := time.Now()
		if err := sys.Run(step); err != nil {
			return err
		}
		t1 := time.Now()
		data := sys.DrainGCS()
		mon.Feed(data, sys.Now())
		feedNs += time.Since(t1).Nanoseconds()
		runNs += t1.Sub(t0).Nanoseconds()
		bytesFed += int64(len(data))
	}
	st := sys.App.CPU.TranslationStats()
	tr.add("flight.sim_ns", float64(flightSteps*step))
	tr.add("flight.run_ns", float64(runNs))
	tr.add("flight.feed_ns", float64(feedNs))
	tr.add("flight.bytes", float64(bytesFed))
	tr.add("flight.frames", float64(mon.Heartbeats+mon.RawIMUs+mon.ParamEchoes))
	tr.add("flight.block_execs", float64(st.Execs))
	tr.add("flight.interp_steps", float64(st.InterpSteps))
	tr.add("flight.translations", float64(st.Translated))
	tr.add("flight.invalidations", float64(st.Invalidated))
	return nil
}
