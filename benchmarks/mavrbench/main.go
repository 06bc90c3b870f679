// Command mavrbench is the repository's end-to-end benchmark. It drives
// the paths users run — the golden replay, the scengen sweep, a cold
// and a cached armory artifact, and the UDP fleet link — through each
// layer's public API, checks their outputs, and prints every metric as
// "<workload> <name> <value> <unit>", then one JSON result line. A
// traced run adds the per-layer breakdown.
//
// Run it from the repository root:
//
//	bash benchmarks/mavrbench/run.sh --workload replay-golden --seed 1 --seconds 15 --trace 0
//	mavrbench [run] -workload <name> -seed <n> -seconds <s> -trace <0|1> [-o record.json] [-spans spans.jsonl]
//	mavrbench calibrate -n 5 -o <dir>
//	mavrbench compare <old-dir> <new-dir>
//
// run exits 1 after printing when any output check failed, and 2 on a
// usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var code int
	var err error
	switch cmd {
	case "run":
		code, err = runCmd(args)
	case "compare":
		code, err = compareCmd(args)
	case "calibrate":
		err = calibrateCmd(args)
	default:
		err = fmt.Errorf("unknown command %q (run, compare, calibrate)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mavrbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func runCmd(args []string) (int, error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workload := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the inputs are a function of it")
	seconds := fs.Float64("seconds", 15, "length of the timed loop")
	trace := fs.Int("trace", 0, "1 adds the traced run and reports the per-layer metrics")
	out := fs.String("o", "", "write the run record (JSON) to this file")
	spans := fs.String("spans", "", "with -trace 1, write the spans (JSON lines) to this file")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *trace != 0 && *trace != 1 {
		return 0, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	rec, err := run(runOptions{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		setups:    5,
		spansPath: *spans,
	}, os.Stdout)
	if err != nil {
		return 0, err
	}
	if *out != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	if !rec.Correct {
		return 1, nil
	}
	return 0, nil
}
