package main

import (
	"time"

	"mavr/internal/firmware"
	"mavr/internal/scenario"
	"mavr/internal/scengen"
)

// probeReps is how many times a probe repeats its item.
const probeReps = 3

// probeGroup runs, on small fixed inputs, a set of layer calls that a
// workload's items may never make.
type probeGroup struct {
	// names are the spans the group produces; it runs when any of them
	// is missing from the trace.
	names []string
	run   func(p *tracer, seed int64) error
}

var probeGroups = []probeGroup{
	{[]string{"scenario.Run", "attack.payload", "attack.Synthesize", "staticverify.Verify", "scengen.Generate", "scengen.CheckAll"}, probeScenario},
	{[]string{"armory.Service.Randomize"}, probeFleet},
	{[]string{"armory.load", "staticverify.NewBase/cfg", "staticverify.Base.Verify", "armory.ledger", "armory.sign"}, probeCold},
	{[]string{"netlink.codec"}, probeCodec},
}

// probe measures the layers the workload's items did not reach, so
// every per-layer metric is measured on every workload. Probe spans sit
// in probe trees; a metric uses them only when the items produced none,
// and probe counters fill only the counters the items left empty.
func probe(tr *tracer, seed int64) error {
	for _, g := range probeGroups {
		missing := false
		for _, n := range g.names {
			missing = missing || !tr.has(n)
		}
		if !missing {
			continue
		}
		p := tr.fork()
		if err := g.run(p, seed); err != nil {
			return err
		}
		tr.merge(p)
	}
	return nil
}

// probeSpec is a small scenario that reaches every layer a scenario
// can: a stale V2 payload and a synthesized chain against a MAVR board,
// so the master re-randomizes and verifies.
func probeSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		Name:            "probe",
		Board:           scenario.BoardMAVR,
		Seed:            seed,
		WatchdogTimeout: 20 * time.Millisecond,
		Run:             time.Second,
		Injections: []scenario.Injection{
			{At: 200 * time.Millisecond, Kind: scenario.InjectV2, Value: 0x7F},
			{At: 250 * time.Millisecond, Kind: scenario.InjectSynth, Value: 0x41, Addr: firmware.AddrFreeMem + 0x400},
		},
	}
}

func probeScenario(p *tracer, seed int64) error {
	spec := probeSpec(seed)
	for k := 0; k < probeReps; k++ {
		root := p.begin(probeRoot, k, 0)
		var recs []scenario.Record
		after, err := runScenario(p, k, root, spec, func(res *scenario.Result, _ []byte) error {
			recs = res.Records
			return nil
		})
		if err == nil {
			err = after()
		}
		if err != nil {
			p.end(root)
			return err
		}
		var gen scenario.Spec
		p.do("scengen.Generate", k, root, func() error {
			gen = scengen.Generate(seed + int64(k))
			return nil
		})
		countSpec(p, gen)
		// The probe spec is not drawn from scengen, so its verdicts may
		// break invariants; only the time of the check matters here.
		p.do("scengen.CheckAll", k, root, func() error {
			scengen.CheckAll(spec, recs)
			return nil
		})
		p.end(root)
	}
	return nil
}

// probeCold runs the cold armory item on the test application.
func probeCold(p *tracer, seed int64) error {
	bases, err := genSubjects(firmware.TestApp())
	if err != nil {
		return err
	}
	c := &coldInst{seed: seed, bases: bases}
	for k := 0; k < probeReps; k++ {
		if err := probeItem(p, "armory.cold", c, k); err != nil {
			return err
		}
	}
	return nil
}

// probeFleetItems is the number of requests the HTTP probe sends.
const probeFleetItems = 10

// probeFleet runs the armory fleet items on the test application.
func probeFleet(p *tracer, seed int64) error {
	bases, err := genSubjects(firmware.TestApp())
	if err != nil {
		return err
	}
	f, err := newFleet(seed, bases)
	if err != nil {
		return err
	}
	defer f.close()
	for k := 0; k < probeFleetItems; k++ {
		if err := probeItem(p, "armory.Client.Randomize", f, k); err != nil {
			return err
		}
	}
	if errs := f.finish(p); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// probeItem runs item k of inst's first client as a probe tree whose
// child named root stands for the workload's item root.
func probeItem(p *tracer, root string, inst instance, k int) error {
	pr := p.begin(probeRoot, k, 0)
	defer p.end(pr)
	r := p.begin(root, k, pr)
	after, err := inst.item(0, k, k, p, r)
	p.end(r)
	if err != nil || after == nil {
		return err
	}
	return after()
}

func probeCodec(p *tracer, _ int64) error {
	payload := paramSet(1, 0).MarshalOversize()
	for k := 0; k < 20; k++ {
		pr := p.begin(probeRoot, k, 0)
		err := codec(p, k, pr, payload)
		p.end(pr)
		if err != nil {
			return err
		}
	}
	return nil
}
