// mavr-scengen drives the generative scenario engine
// (internal/scengen): sample scenario Specs from seeds, run whole
// seed sweeps under the trace-invariant library and the differential
// comparator, and shrink a failing seed to a minimal reproducing Spec.
//
// Usage:
//
//	mavr-scengen gen -seed N [-n K]
//	mavr-scengen run -n K [-seed-base B] [-differential] [-json] [-shrink]
//	mavr-scengen shrink -seed N [-differential]
//	mavr-scengen invariants
//
// gen prints the generated Spec(s) as JSON, one per line. run
// generates and executes K consecutive seeds, checks every applicable
// invariant over each trace (plus the unprotected-vs-MAVR differential
// for MAVR specs with -differential), prints one deterministic digest
// line per seed, and exits 2 on any violation. shrink minimizes a
// failing seed's Spec by first-improvement restart over a fixed
// transformation list. invariants lists the library with the paper
// claims each property mechanizes.
//
// The sweep output is a pure function of (seed-base, n): CI runs the
// same sweep twice and byte-compares the digests, the same way the
// golden gate byte-compares individual traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mavr/internal/scenario"
	"mavr/internal/scengen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	var failed bool
	switch os.Args[1] {
	case "gen":
		err = gen(os.Args[2:])
	case "run":
		failed, err = runSweep(os.Args[2:])
	case "shrink":
		err = shrinkCmd(os.Args[2:])
	case "invariants":
		err = listInvariants()
	case "-h", "--help", "help":
		usage()
		return
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mavr-scengen:", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mavr-scengen gen -seed N [-n K]
  mavr-scengen run -n K [-seed-base B] [-differential] [-json] [-shrink]
  mavr-scengen shrink -seed N [-differential]
  mavr-scengen invariants`)
}

func gen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "first seed")
	n := fs.Int("n", 1, "number of consecutive seeds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for i := 0; i < *n; i++ {
		b, err := json.Marshal(scengen.Generate(*seed + int64(i)))
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// check runs one generated spec and returns every violation: the
// invariant library over its trace, plus (optionally, for MAVR specs)
// the differential comparison against the unprotected twin.
func check(spec scenario.Spec, differential bool) (*scenario.Result, []*scenario.Divergence, error) {
	res, err := scenario.Run(spec)
	if err != nil {
		return nil, nil, err
	}
	ds := scengen.CheckAll(spec, res.Records)
	if differential && spec.Board == scenario.BoardMAVR {
		d, err := scengen.Differential(spec, res.Records)
		if err != nil {
			return nil, nil, err
		}
		if d != nil {
			ds = append(ds, d)
		}
	}
	return res, ds, nil
}

func runSweep(args []string) (failed bool, err error) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	n := fs.Int("n", 20, "number of seeds")
	base := fs.Int64("seed-base", 1, "first seed")
	differential := fs.Bool("differential", false, "also compare MAVR specs against their unprotected twin")
	asJSON := fs.Bool("json", false, "print violations as JSON")
	autoShrink := fs.Bool("shrink", false, "shrink the first failing seed to a minimal Spec")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	for i := 0; i < *n; i++ {
		seed := *base + int64(i)
		spec := scengen.Generate(seed)
		res, ds, err := check(spec, *differential)
		if err != nil {
			return true, fmt.Errorf("seed %d (%s/%s): %w", seed, spec.Board, spec.App, err)
		}
		status := "ok"
		if len(ds) > 0 {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-4s %-12s board=%-13s app=%-10s inj=%d records=%4d digest=%s\n",
			status, spec.Name, spec.Board, spec.App, len(spec.Injections), len(res.Records), scenario.TraceDigest(res.Records))
		for _, d := range ds {
			if *asJSON {
				out, _ := json.Marshal(struct {
					Seed int64                `json:"seed"`
					Diff *scenario.Divergence `json:"diff"`
				}{seed, d})
				fmt.Println(string(out))
			} else {
				fmt.Printf("     %s\n", d)
			}
		}
		if failed && *autoShrink {
			min := shrink(spec, *differential)
			b, _ := json.Marshal(min)
			fmt.Printf("shrunk seed %d to minimal failing spec:\n%s\n", seed, b)
			return true, nil
		}
	}
	return failed, nil
}

func shrinkCmd(args []string) error {
	fs := flag.NewFlagSet("shrink", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "failing seed")
	differential := fs.Bool("differential", false, "include the differential comparison in the failure predicate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := scengen.Generate(*seed)
	_, ds, err := check(spec, *differential)
	if err == nil && len(ds) == 0 {
		return fmt.Errorf("seed %d does not fail; nothing to shrink", *seed)
	}
	min := shrink(spec, *differential)
	b, err := json.MarshalIndent(min, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	_, ds, rerr := check(min, *differential)
	if rerr != nil {
		fmt.Fprintf(os.Stderr, "minimal spec run error: %v\n", rerr)
	}
	for _, d := range ds {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	return nil
}

// shrink minimizes a failing Spec by first-improvement restart: apply
// the first transformation that still fails, start over, stop when no
// transformation preserves the failure. A run error counts as a
// failure (the spec reproduces *some* defect either way).
func shrink(spec scenario.Spec, differential bool) scenario.Spec {
	failing := func(s scenario.Spec) bool {
		_, ds, err := check(s, differential)
		return err != nil || len(ds) > 0
	}
	for {
		improved := false
		for _, tr := range transforms(spec) {
			cand, changed := tr(spec)
			if !changed {
				continue
			}
			if failing(cand) {
				spec = cand
				improved = true
				break
			}
		}
		if !improved {
			return spec
		}
	}
}

// transforms is the fixed simplification list, most aggressive first.
func transforms(spec scenario.Spec) []func(scenario.Spec) (scenario.Spec, bool) {
	var out []func(scenario.Spec) (scenario.Spec, bool)
	// Drop each injection individually.
	for i := range spec.Injections {
		i := i
		out = append(out, func(s scenario.Spec) (scenario.Spec, bool) {
			if i >= len(s.Injections) {
				return s, false
			}
			injs := append([]scenario.Injection(nil), s.Injections[:i]...)
			injs = append(injs, s.Injections[i+1:]...)
			s.Injections = injs
			return s, true
		})
	}
	out = append(out,
		func(s scenario.Spec) (scenario.Spec, bool) {
			if !s.Link.Active() {
				return s, false
			}
			s.Link = scenario.LinkSpec{}
			return s, true
		},
		func(s scenario.Spec) (scenario.Spec, bool) {
			if !s.Chaos.Active() {
				return s, false
			}
			s.Chaos = scenario.ChaosSpec{}
			return s, true
		},
		func(s scenario.Spec) (scenario.Spec, bool) {
			if s.App == "" || s.App == "testapp" {
				return s, false
			}
			s.App = "testapp"
			return s, true
		},
		func(s scenario.Spec) (scenario.Spec, bool) {
			// Halve the run tail, keeping every injection's 1s budget.
			min := 400 * time.Millisecond
			for _, inj := range s.Injections {
				if need := inj.At + time.Second; need > min {
					min = need
				}
			}
			half := (s.Run / 2 / (50 * time.Millisecond)) * 50 * time.Millisecond
			if half < min {
				half = min
			}
			if half >= s.Run {
				return s, false
			}
			s.Run = half
			return s, true
		},
		func(s scenario.Spec) (scenario.Spec, bool) {
			if s.WatchdogTimeout == 0 && s.RandomizeEvery == 0 {
				return s, false
			}
			s.WatchdogTimeout = 0
			s.RandomizeEvery = 0
			return s, true
		},
	)
	return out
}

func listInvariants() error {
	for _, inv := range scengen.Invariants() {
		fmt.Printf("%-28s %s\n", inv.Name, inv.Claim)
	}
	return nil
}
