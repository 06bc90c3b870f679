package scenario

import (
	"fmt"
	"sort"
	"time"

	"mavr/internal/attack"
	"mavr/internal/board"
	"mavr/internal/chaos"
	"mavr/internal/firmware"
	"mavr/internal/gcs"
	"mavr/internal/netlink"
)

// Result is one scenario execution: the canonical trace, the final
// verdict and (for tests) the underlying system.
type Result struct {
	Spec    Spec
	Records []Record
	Verdict Verdict
	// Sys is the vehicle after the run (inspection only).
	Sys *board.System
	// Mon is the ground station monitor after the run.
	Mon *gcs.Monitor
}

// Trace renders the canonical JSONL trace.
func (r *Result) Trace() string { return TraceString(r.Records) }

// send is one uplink packet scheduled by the injection plan.
type send struct {
	at      time.Duration // sim time relative to run start
	note    string
	payload []byte // raw overflow payload (pre-framing)
	landed  func(*board.System) bool
}

// Run executes the scenario and returns its trace. It is strictly
// single-goroutine and wall-clock-free: the same Spec always yields a
// byte-identical trace.
func Run(spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	app, err := firmware.Profile(spec.App)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	img, err := firmware.Generate(app, firmware.ModeMAVR)
	if err != nil {
		return nil, err
	}
	sends, err := buildSends(spec, img)
	if err != nil {
		return nil, err
	}

	sys, err := buildSystem(spec)
	if err != nil {
		return nil, err
	}
	if err := sys.FlashFirmware(img); err != nil {
		return nil, err
	}
	if spec.Observe != nil {
		spec.Observe(sys)
	}
	if _, err := sys.Boot(); err != nil {
		return nil, err
	}

	chaosOn := spec.Chaos.Active()
	r := &Result{Spec: spec, Sys: sys, Mon: &gcs.Monitor{TolerateLinkLoss: spec.Link.Active() || chaosOn}}
	link := netlink.SimConfig{Seed: spec.Seed, DropRate: spec.Link.DropRate, DupRate: spec.Link.DupRate}
	ch := chaos.Config{
		Seed:              spec.Seed,
		PartitionDownRate: spec.Chaos.PartitionRate,
		PartitionWindow:   spec.Chaos.PartitionWindow,
		CorruptRate:       spec.Chaos.CorruptRate,
	}
	var split netlink.StreamSplitter
	var dgSeq uint32
	var mavSeq byte
	var eventsSeen int
	var prev Counters
	// inOutage tracks a chaos partition in progress: datagrams are being
	// dropped wholesale, so the monitor must not be Fed (a Feed is
	// arrival evidence) — it is kept on link-idle rations until traffic
	// resumes and the outage is booked against the link.
	var inOutage bool

	emitEvents := func() {
		evs := sys.Events()
		for ; eventsSeen < len(evs); eventsSeen++ {
			e := evs[eventsSeen]
			r.Records = append(r.Records, Record{
				T: int64(e.At), Kind: e.Kind.String(), Note: e.Note,
			})
		}
	}
	counters := func() Counters {
		c := Counters{
			Pulses:         r.Mon.Pulses,
			SeqGaps:        r.Mon.SeqGaps,
			LinkGaps:       r.Mon.LinkGaps,
			Garbage:        r.Mon.Garbage,
			Heartbeats:     r.Mon.Heartbeats,
			FrameErrors:    r.Mon.HeartbeatErrors,
			RawIMUs:        r.Mon.RawIMUs,
			ParamEchoes:    r.Mon.ParamEchoes,
			MaxSilence:     int64(r.Mon.MaxSilence),
			LinkOutages:    r.Mon.LinkOutages,
			CorruptDrops:   r.Mon.CorruptDrops,
			MaxLinkSilence: int64(r.Mon.MaxLinkSilence),
		}
		if sys.Master != nil {
			c.Epoch = sys.Master.Stats().Randomizations
		}
		return c
	}
	emitDeltas := func(now time.Duration) {
		cur := counters()
		t := int64(now)
		for _, d := range []struct {
			kind string
			n    int
		}{
			{"seq-gap", cur.SeqGaps - prev.SeqGaps},
			{"link-gap", cur.LinkGaps - prev.LinkGaps},
			{"garbage", cur.Garbage - prev.Garbage},
			{"frame-error", cur.FrameErrors - prev.FrameErrors},
			{"heartbeat", cur.Heartbeats - prev.Heartbeats},
			{"raw-imu", cur.RawIMUs - prev.RawIMUs},
			{"param-echo", cur.ParamEchoes - prev.ParamEchoes},
			{"corrupt-drop", cur.CorruptDrops - prev.CorruptDrops},
			{"link-outage", cur.LinkOutages - prev.LinkOutages},
		} {
			if d.n != 0 {
				r.Records = append(r.Records, Record{T: t, Kind: d.kind, N: d.n})
			}
		}
		prev = cur
	}

	startNote := fmt.Sprintf("%s board=%s app=%s seed=%d drop=%g dup=%g injections=%d",
		spec.Name, spec.Board, spec.App, spec.Seed, spec.Link.DropRate, spec.Link.DupRate, len(spec.Injections))
	if chaosOn {
		startNote += fmt.Sprintf(" chaos(partition=%g window=%d corrupt=%g)",
			spec.Chaos.PartitionRate, spec.Chaos.PartitionWindow, spec.Chaos.CorruptRate)
	}
	r.Records = append(r.Records, Record{T: 0, Kind: "start", Note: startNote})
	emitEvents() // boot (+ initial randomization on MAVR boards)

	start := sys.Now()
	end := start + spec.Run
	nextCheckpoint := spec.Checkpoint
	sent := 0
	for sys.Now() < end {
		now := sys.Now()
		elapsed := now - start
		// Fire injections that are due before this step.
		for sent < len(sends) && sends[sent].at <= elapsed {
			s := sends[sent]
			f := attack.Frame(s.payload)
			f.Seq = mavSeq
			mavSeq++
			wire := f.MarshalOversize()
			sys.SendToUAV(wire)
			r.Records = append(r.Records, Record{
				T: int64(now), Kind: "inject", Note: s.note,
				N: len(wire), Payload: fnvDigest(wire),
			})
			sent++
		}

		step := spec.Step
		if rem := end - now; rem < step {
			step = rem
		}
		if err := sys.Run(step); err != nil {
			return nil, err
		}
		raw := sys.DrainGCS()
		if spec.Link.Active() || chaosOn {
			var corrupted, partitioned int
			raw, partitioned, corrupted = applyFaults(&split, link, ch, spec.Link.Active(), &dgSeq, raw)
			for i := 0; i < corrupted; i++ {
				r.Mon.NoteCorrupt()
			}
			switch {
			case inOutage && len(raw) == 0:
				// Outage still in progress (or the board is silent behind
				// it): no arrival evidence, keep the link-silence clock
				// running instead of Feeding.
				r.Mon.FeedLinkIdle(sys.Now())
			case len(raw) == 0 && partitioned > 0:
				// The partition swallowed everything this step: from the
				// ground, nothing arrived at all.
				inOutage = true
				r.Mon.FeedLinkIdle(sys.Now())
			case inOutage:
				// Traffic resumed: book the outage against the link, then
				// deliver.
				r.Mon.NoteLinkOutage(sys.Now())
				inOutage = false
				r.Mon.Feed(raw, sys.Now())
			default:
				r.Mon.Feed(raw, sys.Now())
			}
		} else {
			r.Mon.Feed(raw, sys.Now())
		}

		emitEvents()
		emitDeltas(sys.Now())
		if sys.Now()-start >= nextCheckpoint {
			c := counters()
			r.Records = append(r.Records, Record{T: int64(sys.Now()), Kind: "checkpoint", Counters: &c})
			for nextCheckpoint <= sys.Now()-start {
				nextCheckpoint += spec.Checkpoint
			}
		}
	}

	v := Verdict{
		Compromised:   r.Mon.CompromiseDetected(spec.SilenceThreshold),
		VehicleSilent: r.Mon.VehicleSilent(spec.SilenceThreshold),
		BoardAlive:    sys.App.Running(),
		GyroCfg:       sys.App.CPU.Data[firmware.AddrGyroCfg],
		Final:         counters(),
	}
	if chaosOn {
		v.Health = r.Mon.Classify(spec.SilenceThreshold).String()
	}
	if sys.Master != nil {
		st := sys.Master.Stats()
		v.FailuresDetected = st.FailuresDetected
		v.Reflashes = len(sys.Reflashes())
		v.VerifyRejections = st.VerifyRejections
	}
	landedAll := false
	for _, s := range sends {
		if s.landed == nil {
			continue
		}
		if !s.landed(sys) {
			landedAll = false
			break
		}
		landedAll = true
	}
	v.AttackLanded = landedAll
	r.Verdict = v
	r.Records = append(r.Records, Record{T: int64(sys.Now()), Kind: "verdict", Verdict: &v})
	return r, nil
}

func buildSystem(spec Spec) (*board.System, error) {
	switch spec.Board {
	case BoardUnprotected:
		return board.NewSystem(board.SystemConfig{Unprotected: true}), nil
	case BoardSoftwareOnly:
		return board.NewSystem(board.SystemConfig{SoftwareOnly: true, SoftwareSeed: spec.Seed}), nil
	case BoardMAVR:
		return board.NewSystem(board.SystemConfig{Master: board.MasterConfig{
			Seed:            spec.Seed,
			WatchdogTimeout: spec.WatchdogTimeout,
			RandomizeEvery:  spec.RandomizeEvery,
			ProgramBaud:     spec.ProgramBaud,
			SkipVerify:      spec.SkipVerify,
		}}), nil
	}
	return nil, fmt.Errorf("scenario: unknown board mode %q", spec.Board)
}

// buildSends expands the injection plan into concrete payloads. The
// attacker analyzes the unprotected application binary (the paper's
// threat model: the stock image is public, the randomized one is not).
func buildSends(spec Spec, img *firmware.Image) ([]send, error) {
	if len(spec.Injections) == 0 {
		return nil, nil
	}
	a, err := attack.Analyze(img.ELF)
	if err != nil {
		return nil, err
	}
	// The synthesized chain is searched for once per Spec (it depends
	// only on the binary and the seed) and reused by every synth
	// injection.
	var synth *attack.Synthesis
	synthesize := func() (*attack.Synthesis, error) {
		if synth != nil {
			return synth, nil
		}
		s, err := attack.Synthesize(img.ELF, attack.SynthOptions{Stealth: true, Seed: spec.Seed})
		if err != nil {
			return nil, err
		}
		synth = s
		return s, nil
	}
	var sends []send
	for idx, inj := range spec.Injections {
		inj = inj.withDefaults()
		w := attack.Write{Addr: inj.Addr, Vals: [3]byte{inj.Value, 0, 0}}
		landedAt := func(addr uint16, val byte) func(*board.System) bool {
			return func(s *board.System) bool { return s.App.CPU.Data[addr] == val }
		}
		switch inj.Kind {
		case InjectV1:
			p, err := attack.BuildV1(a, w)
			if err != nil {
				return nil, fmt.Errorf("scenario: injection %d: %w", idx, err)
			}
			sends = append(sends, send{
				at:      inj.At,
				note:    fmt.Sprintf("v1 write 0x%04X=0x%02X", inj.Addr, inj.Value),
				payload: p,
				landed:  landedAt(inj.Addr, inj.Value),
			})
		case InjectV2:
			p, err := attack.BuildV2(a, w)
			if err != nil {
				return nil, fmt.Errorf("scenario: injection %d: %w", idx, err)
			}
			sends = append(sends, send{
				at:      inj.At,
				note:    fmt.Sprintf("v2 write 0x%04X=0x%02X", inj.Addr, inj.Value),
				payload: p,
				landed:  landedAt(inj.Addr, inj.Value),
			})
		case InjectV3:
			var big []attack.Write
			for i := 0; i < inj.StageWrites; i++ {
				big = append(big, attack.Write{
					Addr: inj.Addr + uint16(3*i),
					Vals: [3]byte{inj.Value, byte(i), byte(i + 100)},
				})
			}
			packets, err := attack.BuildV3(a, big, inj.StageAddr)
			if err != nil {
				return nil, fmt.Errorf("scenario: injection %d: %w", idx, err)
			}
			for i, p := range packets {
				sends = append(sends, send{
					at:      inj.At + time.Duration(i)*inj.Spacing,
					note:    fmt.Sprintf("v3 packet %d/%d stage 0x%04X", i+1, len(packets), inj.StageAddr),
					payload: p,
					landed:  landedAt(inj.Addr, inj.Value),
				})
			}
		case InjectSynth:
			s, err := synthesize()
			if err != nil {
				return nil, fmt.Errorf("scenario: injection %d: %w", idx, err)
			}
			if !s.Found {
				return nil, fmt.Errorf("scenario: injection %d: synthesis found no chain (%d attempts)", idx, s.Attempts)
			}
			p, err := s.PayloadFor(w)
			if err != nil {
				return nil, fmt.Errorf("scenario: injection %d: %w", idx, err)
			}
			grade := "landing"
			if s.Stealthy {
				grade = "stealthy"
			}
			note := fmt.Sprintf("synth %s load=0x%06X store=0x%06X", grade, s.Writer.LoadAddr, s.Writer.StoreAddr)
			if s.Pivot != nil {
				note += fmt.Sprintf(" pivot=0x%06X", s.Pivot.Addr)
			}
			note += fmt.Sprintf(" attempts=%d write 0x%04X=0x%02X", s.Attempts, inj.Addr, inj.Value)
			sends = append(sends, send{
				at:      inj.At,
				note:    note,
				payload: p,
				landed:  landedAt(inj.Addr, inj.Value),
			})
		case InjectProbe:
			p, err := attack.BuildV1(a.AssumeWriteMem(inj.Candidate), w)
			if err != nil {
				return nil, fmt.Errorf("scenario: injection %d: %w", idx, err)
			}
			sends = append(sends, send{
				at:      inj.At,
				note:    fmt.Sprintf("probe candidate 0x%06X write 0x%04X=0x%02X", inj.Candidate, inj.Addr, inj.Value),
				payload: p,
				// A probe is expected to miss; it never counts toward
				// AttackLanded.
			})
		default:
			return nil, fmt.Errorf("scenario: injection %d: unknown kind %q", idx, inj.Kind)
		}
	}
	sort.SliceStable(sends, func(i, j int) bool { return sends[i].at < sends[j].at })
	return sends, nil
}

// applyFaults packetizes the downlink byte stream into record-aligned
// datagrams and applies the chaos schedule, then the link fault
// schedule, per datagram: partitioned and corrupted datagrams vanish
// whole (pulse gaps and corruption drops, never garbage — corruption
// is caught by the transport checksum), dropped ones likewise, and
// duplicated ones are delivered twice back to back. It reports how
// many datagrams the partition and corruption schedules consumed.
func applyFaults(split *netlink.StreamSplitter, cfg netlink.SimConfig, ch chaos.Config, linkOn bool, seq *uint32, raw []byte) (out []byte, partitioned, corrupted int) {
	for _, rec := range split.Feed(raw) {
		s := *seq
		*seq++
		if ch.Partitioned(chaos.Down, 1, s) {
			partitioned++
			continue
		}
		if _, hit := ch.Corrupt(chaos.Down, 1, s); hit {
			corrupted++
			continue
		}
		if !linkOn {
			out = append(out, rec...)
			continue
		}
		fate := cfg.Fate("down", s)
		if fate.Drop {
			continue
		}
		for i := 0; i < fate.Copies; i++ {
			out = append(out, rec...)
		}
	}
	return out, partitioned, corrupted
}
