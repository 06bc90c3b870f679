package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads every run record (*.json) in dir.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no run records (*.json)", dir)
	}
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
	changed    = "changed" // an exact metric that did not repeat
)

// verdict judges new runs against old ones for a metric whose better
// direction is "lower" or "higher". A median worse by more than bound
// is a regression, better by more than bound an improvement. When the
// spread of either side exceeds the bound the medians cannot resolve
// it, unless every new run beats every old run.
func verdict(old, new []float64, better string, bound float64) string {
	mo, mn := median(old), median(new)
	worse := relDelta(mo, mn)
	if better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, o := range old {
		for _, n := range new {
			if better == "higher" && n <= o || better != "higher" && n >= o {
				allBetter = false
			}
		}
	}
	switch {
	case math.Max(spread(old), spread(new)) > bound && !allBetter:
		return unresolved
	case worse > bound:
		return regressed
	case worse < -bound:
		return improved
	}
	return unchanged
}

// relDelta is (new-old)/|old|.
func relDelta(old, new float64) float64 {
	switch {
	case old == new:
		return 0
	case old == 0:
		return math.Copysign(math.Inf(1), new)
	}
	return (new - old) / math.Abs(old)
}

// exactVerdict compares an exact metric seed by seed: every seed both
// sides ran must read the same.
func exactVerdict(old, new map[int64][]float64) string {
	for seed, ov := range old {
		for _, o := range ov {
			for _, n := range new[seed] {
				if o != n {
					return changed
				}
			}
		}
	}
	return unchanged
}

func compareCmd(args []string) (int, error) {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() != 2 {
		return 0, fmt.Errorf("usage: mavrbench compare [-spec BENCHMARK.json] <old-dir> <new-dir>")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return 0, err
	}
	old, err := loadRecords(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	new, err := loadRecords(fs.Arg(1))
	if err != nil {
		return 0, err
	}
	if compare(spec, old, new, os.Stdout) {
		return 1, nil
	}
	return 0, nil
}

// compare prints one row per workload and metric and reports whether
// any gate failed: an end-to-end regression, a rise in the error rate,
// or an exact per-layer metric that changed.
func compare(spec *benchSpec, old, new []record, out io.Writer) (failed bool) {
	fmt.Fprintf(out, "%-14s %-32s %-34s %-34s %9s %7s %s\n", "workload", "metric", "old median [q1 q3]", "new median [q1 q3]", "delta", "bound", "verdict")
	for _, w := range spec.Workloads {
		o, n := byWorkload(old, w.Name), byWorkload(new, w.Name)
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		oe, ne := errorRates(o), errorRates(n)
		v := unchanged
		if median(ne) > median(oe) || maxOf(ne) > maxOf(oe) {
			v, failed = regressed, true
		}
		fmt.Fprintln(out, row(w.Name, "error_rate", oe, ne, 0, v))
		for _, m := range spec.EndToEnd {
			ov, _ := values(o, m.Name, false)
			nv, _ := values(n, m.Name, false)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			v := verdict(ov, nv, m.Better, m.Bound)
			failed = failed || v == regressed
			fmt.Fprintln(out, row(w.Name, m.Name, ov, nv, m.Bound, v))
		}
		for _, m := range spec.PerLayer {
			ov, oSeeds := values(o, m.Name, true)
			nv, nSeeds := values(n, m.Name, true)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			v := "-"
			if layerExact(m.Name) {
				v = exactVerdict(oSeeds, nSeeds)
				failed = failed || v == changed
			}
			fmt.Fprintln(out, row(w.Name, m.Name, ov, nv, math.NaN(), v))
		}
	}
	return failed
}

func row(workload, name string, old, new []float64, bound float64, v string) string {
	oq1, om, oq3 := quartiles(old)
	nq1, nm, nq3 := quartiles(new)
	b := "-"
	if !math.IsNaN(bound) {
		b = fmt.Sprintf("%.1f%%", 100*bound)
	}
	return fmt.Sprintf("%-14s %-32s %-34s %-34s %+8.2f%% %7s %s", workload, name,
		fmt.Sprintf("%.6g [%.6g %.6g]", om, oq1, oq3), fmt.Sprintf("%.6g [%.6g %.6g]", nm, nq1, nq3),
		100*relDelta(om, nm), b, v)
}

func byWorkload(rs []record, name string) []record {
	var out []record
	for _, r := range rs {
		if r.Header.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

// values collects a metric over records, also grouped by seed. layer
// selects the per-layer metrics of traced records.
func values(rs []record, name string, layer bool) ([]float64, map[int64][]float64) {
	var all []float64
	bySeed := map[int64][]float64{}
	for _, r := range rs {
		src := r.Metrics
		if layer {
			src = r.Layers
		}
		if m, ok := src[name]; ok {
			all = append(all, m.Value)
			bySeed[r.Header.Seed] = append(bySeed[r.Header.Seed], m.Value)
		}
	}
	return all, bySeed
}

func errorRates(rs []record) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func layerExact(name string) bool {
	for _, d := range layerDefs {
		if d.name == name {
			return d.exact
		}
	}
	return false
}

// calibrateCmd runs every workload n times, alternating the workload
// order, and prints each end-to-end metric's spread and the bound it
// supports.
func calibrateCmd(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	n := fs.Int("n", 5, "runs per workload; run i uses seed i")
	dir := fs.String("o", "", "directory for the run records")
	seconds := fs.Float64("seconds", 15, "length of each run's timed loop")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("calibrate needs -o <dir>")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for rep := 1; rep <= *n; rep++ {
		order := append([]string(nil), names...)
		if rep%2 == 0 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			base := filepath.Join(*dir, fmt.Sprintf("%s-%d", w, rep))
			log, err := os.Create(base + ".txt")
			if err != nil {
				return err
			}
			cmd := exec.Command(exe, "run", "-workload", w, "-seed", strconv.Itoa(rep),
				"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", "0", "-o", base+".json")
			cmd.Stdout, cmd.Stderr = log, os.Stderr
			err = cmd.Run()
			log.Close()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, rep, err)
			}
			fmt.Fprintf(os.Stderr, "calibrate: %s seed %d done\n", w, rep)
		}
	}
	recs, err := loadRecords(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-20s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range names {
		rs := byWorkload(recs, w)
		for _, m := range e2eNames() {
			vs, _ := values(rs, m, false)
			q1, q2, q3 := quartiles(vs)
			fmt.Printf("%-14s %-20s %12.6g %12.6g %12.6g %7.2f%% %7.0f%%\n", w, m, q1, q2, q3, 100*spread(vs), 100*suggestBound(spread(vs)))
		}
	}
	return nil
}

// suggestBound is the bound a measured spread supports: three times the
// spread, so the spread stays under a third of it, and at least 5%.
func suggestBound(s float64) float64 {
	return math.Max(0.05, math.Ceil(3*s*100)/100)
}
